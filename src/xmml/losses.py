"""Objective suite for paired two-modality embeddings with text alignment.

A batch row carries four embeddings of one identity: an image embedding and
a text embedding from each of the two modalities (tagged V and R). On top of
these the suite provides

  * a softmax identity loss over both branches' classifier logits,
  * a softmax-weighted triplet objective over the stacked two-modality batch,
  * bidirectional image-text contrastive terms, one-to-one and on fused
    multi-view representations,
  * a distillation term pulling single-view embeddings toward their fused
    versions (fused side treated as constant), and
  * a distance-parity term that penalizes any gap between within-modality
    and cross-modality image-text distances.

Every op returns (scalar, analytic gradients). The gradients are derived by
hand and verified with central differences in the test suite; there is no
autodiff tape anywhere. With `need_grad=False` an op computes its scalar with
the same expressions, returns before any gradient arithmetic, and hands back
None in each gradient slot; the gradient check uses this for its perturbed
evaluations.

The value path takes leading probe axes: every input may carry extra
leading axes (a P x ... stack of probe points of one parameter), and the op
then returns one loss per leading index instead of a Python float, each
equal to the bit to its own 2-D call. The gradient check evaluates all
probes of a parameter chunk this way in one pass. Reductions run only over
contiguous trailing axes, and the per-block losses are added in the 2-D
order, so a stack sums each problem's terms exactly as its 2-D call does.

A batch's embeddings are one contiguous float64 array, `EmbeddingSet.blocks`,
of shape 4 x N x d in the order f_v, f_r, t_v, t_r, and every term returns
its embedding gradient as a plain array of that shape. The two branches'
logits are one 2 x N x C array (V, then R), and so is their gradient. Each
term runs once over a stack of independent problems of one shape (both
branches' logits, both modalities' image-text pairs, or every block's
residual) instead of once per block. Stacking is only ever along a new
leading axis: a matmul never changes its row count, because OpenBLAS results
depend on it, so every stacked problem is equal to the bit to its own 2-D
call. Losses that are summed over blocks are still added one block at a
time, in block order, as Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, make_dataclass
from itertools import groupby
from typing import Callable, NamedTuple

import numpy as np

from .numerics import (DegenerateInputError, DimensionError, ProtocolError,
                       check_field_types, derive_rng, pairwise_distances)


def _value(loss):
    """A loss as a Python float for 2-D inputs, as an array over the probe
    axes for stacked ones."""
    return float(loss) if np.ndim(loss) == 0 else loss


def _logsumexp(s: np.ndarray, axis: int) -> np.ndarray:
    # inline rather than scipy: called in hot loops on tiny matrices
    m = s.max(axis=axis, keepdims=True)
    return m + np.log(np.exp(s - m).sum(axis=axis, keepdims=True))


def _expit(a: np.ndarray) -> np.ndarray:
    # the logistic function of a 1-D array, equal to the bit to
    # scipy.special.expit: libm's exp, one element at a time (numpy's SIMD exp
    # differs in about 2% of values)
    out = []
    for v in a.tolist():
        try:
            out.append(1.0 / (1.0 + math.exp(-v)))
        except OverflowError:   # only where the logistic function rounds to 0
            out.append(0.0)
    return np.array(out)


# distances below this are treated as zero; their derivative direction is
# undefined so the subgradient used is the zero vector
_DIST_EPS = 1e-12


# the four embedding blocks of a batch, in their order along `blocks`' first axis
BLOCK_NAMES = ("f_v", "f_r", "t_v", "t_r")


@dataclass
class EmbeddingSet:
    """Row-aligned embeddings for one batch: images f_*, texts t_*.

    `blocks` is one contiguous 4 x N x d float64 array in BLOCK_NAMES order,
    or a ... x 4 x N x d stack of such batches on the value path.
    """

    blocks: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.blocks = np.ascontiguousarray(self.blocks, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        shape = self.blocks.shape
        if len(shape) < 3 or shape[-3] != 4 or shape[-2] < 1 or shape[-1] < 1:
            raise DimensionError(f"blocks must be 4 x N x d with N,d >= 1, got {shape}")
        if self.labels.shape != (shape[-2],):
            raise DimensionError(
                f"labels must have shape ({shape[-2]},), got {self.labels.shape}")
        finite = np.isfinite(self.blocks).all(axis=(-2, -1))
        if not finite.all():
            name = BLOCK_NAMES[int(np.flatnonzero(~finite)[0]) % 4]
            raise DegenerateInputError(f"block {name} has non-finite entries")

    @property
    def n(self) -> int:
        return self.blocks.shape[-2]

    @property
    def dim(self) -> int:
        return self.blocks.shape[-1]


@dataclass(frozen=True)
class LossWeights:
    """Coefficients and knobs of the combined objective."""

    lambda1: float = 0.25   # weighted triplet
    lambda2: float = 0.2    # contrastive (single + fused)
    lambda3: float = 0.08   # distillation toward fused views
    lambda4: float = 0.01   # distance parity
    tau: float = 0.07       # contrastive temperature
    n_fuse: int = 1         # extra same-identity views averaged per row
    label_aware_contrast: bool = False
    cross_modal_fusion: bool = False
    distill_text: bool = True

    def __post_init__(self) -> None:
        check_field_types(self)
        for name in ("lambda1", "lambda2", "lambda3", "lambda4"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.tau <= 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if self.n_fuse < 0:
            raise ValueError(f"n_fuse must be a non-negative integer, got {self.n_fuse}")

    @property
    def reads_fused(self) -> bool:
        """Whether an active term of TERMS reads the fused views."""
        return any(getattr(self, t.weight) > 0 for t in TERMS.values() if t.reads_fused)


def identity_loss(logits, labels, need_grad: bool = True):
    """Mean cross-entropy of both branches against shared labels, summed.

    `logits` is 2 x N x C (the V branch, then the R branch), or a
    ... x 2 x N x C stack on the value path. Returns (loss, grad_logits),
    the gradient (softmax - onehot) / N per branch, shaped like `logits`.
    """
    lg = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if lg.ndim < 3 or lg.shape[-3] != 2:
        raise DimensionError(f"logits must be 2 x N x C, got shape {lg.shape}")
    n, c = lg.shape[-2:]
    if c < 2:
        raise DimensionError(f"need at least 2 classes, got {c}")
    if y.shape != (n,):
        raise DimensionError(f"labels must have shape ({n},), got {y.shape}")
    if (y < 0).any() or (y >= c).any():
        bad = int(y[(y < 0) | (y >= c)][0])
        raise IndexError(f"label {bad} out of range for {c} classes")

    rows = np.arange(n)
    logp = lg - _logsumexp(lg, axis=-1)
    # a stacked gather is not C-contiguous: copy it so that the mean adds
    # each row's terms in the 2-D order
    means = -np.ascontiguousarray(logp[..., rows, y]).mean(axis=-1)
    loss = _value(0.0 + means[..., 0] + means[..., 1])
    if not need_grad:
        return loss, None
    g = np.exp(logp)
    g[:, rows, y] -= 1.0
    return loss, g / n


def weighted_triplet_loss(stack, labels, need_grad: bool = True):
    """Softplus triplet objective with softmax-weighted positives/negatives.

    For each anchor in the stacked batch, positive distances are combined
    with softmax weights (far positives dominate) and negative distances
    with softmax weights over their negation (near negatives dominate):

        a_i = sum_j wp_ij d_ij - sum_k wn_ik d_ik,   loss = mean softplus(a_i)

    Returns (loss, grad_stack). Every anchor needs at least one positive
    and one negative; zero distances get a zero subgradient.
    """
    f = np.asarray(stack, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if f.ndim < 2:
        raise DimensionError(f"stack must be 2-D, got shape {f.shape}")
    n = f.shape[-2]
    if y.shape != (n,):
        raise DimensionError(f"labels must have shape ({n},), got {y.shape}")

    same = y[:, None] == y[None, :]
    eye = np.eye(n, dtype=bool)
    pos = same & ~eye
    neg = ~same
    if not pos.any(axis=1).all():
        i = int(np.flatnonzero(~pos.any(axis=1))[0])
        raise ProtocolError(f"anchor {i} has no positive in the batch")
    if not neg.any(axis=1).all():
        i = int(np.flatnonzero(~neg.any(axis=1))[0])
        raise ProtocolError(f"anchor {i} has no negative in the batch")

    dist = pairwise_distances(f, f)

    neg_inf = np.float64(-np.inf)
    wp_logits = np.where(pos, dist, neg_inf)
    wp = np.exp(wp_logits - wp_logits.max(axis=-1, keepdims=True))
    wp /= wp.sum(axis=-1, keepdims=True)
    sp = (wp * dist).sum(axis=-1)

    wn_logits = np.where(neg, -dist, neg_inf)
    wn = np.exp(wn_logits - wn_logits.max(axis=-1, keepdims=True))
    wn /= wn.sum(axis=-1, keepdims=True)
    sn = (wn * dist).sum(axis=-1)

    a = sp - sn
    loss = _value(np.logaddexp(0.0, a).mean(axis=-1))
    if not need_grad:
        return loss, None

    # dL/da_i = sigmoid(a_i) / n; the weighted sums differentiate to
    #   d(sp_i)/d(dist_im) = wp_im (1 + dist_im - sp_i)        for positives
    #   d(sn_i)/d(dist_im) = wn_im (1 + sn_i - dist_im)        for negatives
    g = _expit(a) / n
    term_p = wp * (1.0 + dist - sp[:, None])
    term_n = wn * (1.0 + sn[:, None] - dist)
    gmat = g[:, None] * (term_p - term_n)

    h = np.zeros_like(dist)
    np.divide(gmat, dist, out=h, where=dist > _DIST_EPS)
    k = h + h.T
    grad = k.sum(axis=1, keepdims=True) * f - k @ f
    return loss, grad


def _normalize_rows(x: np.ndarray, side: str):
    # the row norms np.linalg.norm(x, axis=-1) computes, for any leading axes
    norms = np.sqrt((x * x).sum(axis=-1))
    if (norms == 0.0).any():
        i = int(np.flatnonzero(norms == 0.0)[0] % x.shape[-2])
        raise DegenerateInputError(f"{side} row {i} has zero norm")
    return x / norms[..., None], norms


def _denormalize_grad(g_hat: np.ndarray, x_hat: np.ndarray, norms: np.ndarray):
    # x_hat = x / |x|; pull a gradient on x_hat back onto x
    inner = (g_hat * x_hat).sum(axis=-1, keepdims=True)
    return (g_hat - inner * x_hat) / norms[..., None]


def contrastive_pair_loss(f, t, tau: float, labels=None, need_grad: bool = True):
    """Bidirectional softmax contrastive loss between two row-aligned sides.

    Scores are cosine similarities divided by `tau`; row i of `f` matches
    column i of `t` and vice versa. With `labels` given, every same-label
    column counts as a positive (mean log-prob over positives) instead of
    just the diagonal. Returns (loss, grad_f, grad_t).

    `f` and `t` are N x d, or ... x N x d stacks of independent problems
    sharing `labels`; a stack gives a loss array over its leading axes and
    ... x N x d gradients, each problem equal to the bit to its own N x d
    call.
    """
    f = np.asarray(f, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if f.ndim < 2 or f.shape != t.shape:
        raise DimensionError(f"sides must share an N x d or ... x N x d shape, "
                             f"got {f.shape} vs {t.shape}")
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    n = f.shape[-2]

    f_hat, f_norms = _normalize_rows(f, "image side")
    t_hat, t_norms = _normalize_rows(t, "text side")
    s = (f_hat @ t_hat.swapaxes(-1, -2)) / tau

    if labels is None:
        q_row = np.eye(n)
        q_col = q_row
    else:
        y = np.asarray(labels, dtype=np.int64)
        if y.shape != (n,):
            raise DimensionError(f"labels must have shape ({n},), got {y.shape}")
        same = (y[:, None] == y[None, :]).astype(np.float64)
        q_row = same / same.sum(axis=1, keepdims=True)
        q_col = same / same.sum(axis=0, keepdims=True)

    log_a = s - _logsumexp(s, axis=-1)
    log_b = s - _logsumexp(s, axis=-2)
    cells = (-2, -1)
    loss = _value(-(q_row * log_a).sum(axis=cells) / n - (q_col * log_b).sum(axis=cells) / n)
    if not need_grad:
        return loss, None, None

    g_s = (np.exp(log_a) - q_row + np.exp(log_b) - q_col) / n
    g_c = g_s / tau
    grad_f = _denormalize_grad(g_c @ t_hat, f_hat, f_norms)
    grad_t = _denormalize_grad(g_c.swapaxes(-1, -2) @ f_hat, t_hat, t_norms)
    return loss, grad_f, grad_t


def contrastive_single(emb: EmbeddingSet | FusedSet, tau: float, labels=None,
                       need_grad: bool = True):
    """One-to-one image-text contrastive term, summed over both modalities:
    one stacked call pairs the image blocks (f_v, f_r) with the text blocks
    (t_v, t_r) of an EmbeddingSet, or the fused blocks of a FusedSet."""
    loss, g_f, g_t = contrastive_pair_loss(emb.blocks[..., :2, :, :], emb.blocks[..., 2:, :, :],
                                           tau, labels, need_grad)
    loss = _value(loss[..., 0] + loss[..., 1])
    if not need_grad:
        return loss, None
    return loss, np.concatenate([g_f, g_t])


@dataclass
class FusedSet:
    """Multi-view averaged embeddings plus the averaging that produced them.

    `blocks` is 4 x N x d, in the order fm_v, fm_r, tm_v, tm_r of the
    single-view blocks they average. `mix_v` and `mix_r` are N x 2N
    row-averaging matrices over the stacked blocks [*_v; *_r], so
    fm_v = mix_v @ vstack(f_v, f_r) and likewise for texts; gradients flow
    back through the transpose. They are the only record of which partners
    were drawn.
    """

    blocks: np.ndarray
    mix_v: np.ndarray
    mix_r: np.ndarray

    @property
    def n(self) -> int:
        return self.blocks.shape[-2]

    @classmethod
    def from_mix(cls, emb: EmbeddingSet, mix_v: np.ndarray,
                 mix_r: np.ndarray) -> "FusedSet":
        """Re-apply a fixed averaging pattern to (possibly new) embeddings,
        slice by slice when they carry leading probe axes."""
        lead, n, d = emb.blocks.shape[:-3], emb.n, emb.dim
        stack_f = emb.blocks[..., :2, :, :].reshape(lead + (2 * n, d))
        stack_t = emb.blocks[..., 2:, :, :].reshape(lead + (2 * n, d))
        blocks = np.empty_like(emb.blocks)
        for k, (mix, stack) in enumerate(((mix_v, stack_f), (mix_r, stack_f),
                                          (mix_v, stack_t), (mix_r, stack_t))):
            np.matmul(mix, stack, out=blocks[..., k, :, :])
        return cls(blocks, mix_v, mix_r)


def fuse_multiview(emb: EmbeddingSet, n_fuse: int, rng_seed: int,
                   cross_modal: bool = False) -> FusedSet:
    """Average each row with `n_fuse` sampled same-identity partner rows.

    Row i's partner pool is the other rows with label `emb.labels[i]`, in
    ascending order; with `cross_modal` it also holds those rows of the
    other modality, after them. Sampling is without replacement when the
    pool has `n_fuse` distinct rows, with replacement otherwise. A row whose
    label has no other row in the batch is fused with itself, i.e. left as
    is. The same sampled partners are applied to the image block and its
    paired text block.

    The draws come from one generator seeded by `rng_seed`, slot by slot:
    rows in order, a row's V slot before its R slot. A slot with an empty
    pool draws nothing; any other slot draws the positions
    `choice(pool_size, n_fuse, replace=pool_size < n_fuse)` into its pool.
    When each of these draws is a run of single bounded integers (`n_fuse`
    <= 1, or every pool smaller than `n_fuse`), one
    `integers(0, pool_sizes)` call makes them all, with the values the
    `choice` calls return. Otherwise each slot calls `choice` in turn.
    """
    n = emb.n
    if n_fuse < 0:
        raise ValueError(f"n_fuse must be >= 0, got {n_fuse}")

    # rows grouped by label; the stable sort keeps each group ascending
    order = np.argsort(emb.labels, kind="stable")
    _, group, counts = np.unique(emb.labels, return_inverse=True, return_counts=True)
    first = (np.cumsum(counts) - counts)[group]    # start of row i's group in `order`
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    rank -= first                                  # row i's place within its group
    n_same = counts[group] - 1

    # slots in draw order: (row 0, V), (row 0, R), (row 1, V), ...
    slot_row = np.repeat(np.arange(n), 2)
    slot_offset = np.tile([0, n], n)
    # the slot's own row in the stacked blocks, and its row in [mix_v; mix_r]
    own = slot_offset + slot_row
    pool_size = np.repeat(n_same * (2 if cross_modal else 1), 2)
    # every slot averages in itself, n_fuse more times when it draws nothing
    self_reps = np.where(pool_size > 0, 1, n_fuse + 1)
    cells = [np.repeat(own * (2 * n) + own, self_reps)]

    live = np.flatnonzero(pool_size > 0)
    if n_fuse > 0 and live.size:
        sizes = pool_size[live]
        rng = derive_rng(rng_seed, "fuse")
        if n_fuse == 1 or (sizes < n_fuse).all():
            k = rng.integers(0, np.repeat(sizes, n_fuse)).reshape(-1, n_fuse)
        else:
            k = np.array([rng.choice(s, n_fuse, replace=s < n_fuse)
                          for s in sizes.tolist()])
        i = slot_row[live, None]
        # position k is row i's same-label partner k % m, in modality k // m
        m = n_same[i]
        j = k % m
        partner = order[first[i] + j + (j >= rank[i])]
        modality = (k // m) * n if cross_modal else slot_offset[live, None]
        cells.append((own[live, None] * (2 * n) + modality + partner).ravel())

    # adding w per draw gives each cell the float sums of one += per draw
    cells = np.concatenate(cells)
    w = 1.0 / (n_fuse + 1)
    mix = np.bincount(cells, weights=np.full(cells.size, w),
                      minlength=4 * n * n).reshape(2 * n, 2 * n)
    return FusedSet.from_mix(emb, mix[:n], mix[n:])


def contrastive_fused(fused: FusedSet, tau: float, labels=None,
                      need_grad: bool = True):
    """`contrastive_single` on the fused views; gradients flow back through
    the averaging. Returns (loss, grads w.r.t. the original single-view blocks).
    """
    loss, g = contrastive_single(fused, tau, labels, need_grad)
    if not need_grad:
        return loss, None
    # images [fm_v; fm_r] and texts [tm_v; tm_r] back onto their stacked blocks
    back = [fused.mix_v.T @ g[k] + fused.mix_r.T @ g[k + 1] for k in (0, 2)]
    return loss, np.concatenate(back).reshape(4, fused.n, -1)


def distill_loss(emb: EmbeddingSet, fused: FusedSet, include_text: bool = True,
                 need_grad: bool = True):
    """Mean squared pull of each single-view block toward its fused version.

    The fused side is a teacher: it is treated as a constant, so gradients
    land only on the single-view blocks.
    """
    if fused.n != emb.n:
        raise DimensionError(f"fused set has {fused.n} rows, batch has {emb.n}")
    n = emb.n
    k = 4 if include_text else 2    # f_v, f_r, then t_v, t_r
    single, teacher = emb.blocks[..., :k, :, :], fused.blocks[..., :k, :, :]
    resid = teacher - single
    block_losses = (resid * resid).sum(axis=(-2, -1)) / n
    loss = 0.0
    for j in range(k):
        loss = loss + block_losses[..., j]
    loss = _value(loss)
    if not need_grad:
        return loss, None
    grads = np.zeros_like(emb.blocks)
    grads[:k] += (2.0 / n) * (single - teacher)
    return loss, grads


# the image and the text block of each distance the parity term reads:
# within V, V image to R text, within R, R image to V text
_PARITY_IMAGES = np.array([0, 0, 1, 1])
_PARITY_TEXTS = np.array([2, 3, 3, 2])


def distance_parity_loss(emb: EmbeddingSet, need_grad: bool = True):
    """Penalty on the gap between within- and cross-modality image-text distances.

    Per row: (|f_v - t_v| - |f_v - t_r|)^2 + (|f_r - t_r| - |f_r - t_v|)^2,
    averaged over the batch. Rows at zero distance contribute a zero
    subgradient for that distance.
    """
    n = emb.n
    diffs = emb.blocks[..., _PARITY_IMAGES, :, :] - emb.blocks[..., _PARITY_TEXTS, :, :]
    dists = np.sqrt((diffs * diffs).sum(axis=-1))
    gaps = dists[..., 0::2, :] - dists[..., 1::2, :]          # gap_v, gap_r
    gap_losses = (gaps * gaps).mean(axis=-1)
    loss = _value(gap_losses[..., 0] + gap_losses[..., 1])
    if not need_grad:
        return loss, None

    u = np.zeros_like(diffs)
    np.divide(diffs, dists[..., None], out=u, where=dists[..., None] > _DIST_EPS)
    c = (2.0 / n) * gaps[..., None]
    c_v, c_r = c
    grads = np.empty_like(diffs)
    grads[:2] = c * (u[0::2] - u[1::2])
    grads[2] = -c_v * u[0] + c_r * u[3]
    grads[3] = c_v * u[1] - c_r * u[2]
    return loss, grads


# one weighted term of the objective: its LossBreakdown field, the LossWeights
# field that scales it, whether it reads the fused views, and `call(emb, fused,
# teacher, weights, need_grad) -> (value, 4 x N x d gradient or None)`, which
# finds its loss function by module-level name at call time
class Term(NamedTuple):
    name: str
    weight: str
    reads_fused: bool
    call: Callable[..., tuple]


def _triplet_term(emb, fused, teacher, w, need_grad):
    # the image blocks [f_v; f_r] as one 2N x d stack, a view; texts get no gradient
    stack = emb.blocks[..., :2, :, :].reshape(emb.blocks.shape[:-3] + (2 * emb.n, emb.dim))
    loss, g = weighted_triplet_loss(stack, np.tile(emb.labels, 2), need_grad=need_grad)
    return loss, g if g is None else np.concatenate([g, np.zeros_like(g)]).reshape(
        emb.blocks.shape)


def _views(views: FusedSet | None, weight: str) -> FusedSet:
    if views is None:
        raise ProtocolError(f"fused views required when {weight} > 0")
    return views


def _contrast_labels(emb: EmbeddingSet, w: LossWeights):
    return emb.labels if w.label_aware_contrast else None


# in the order the gradients are accumulated
TERMS = {t.name: t for t in (
    Term("triplet", "lambda1", False, _triplet_term),
    Term("contrast_single", "lambda2", False, lambda emb, fused, teacher, w, ng:
         contrastive_single(emb, w.tau, _contrast_labels(emb, w), need_grad=ng)),
    Term("contrast_fused", "lambda2", True, lambda emb, fused, teacher, w, ng:
         contrastive_fused(_views(fused, "lambda2"), w.tau, _contrast_labels(emb, w),
                           need_grad=ng)),
    Term("distill", "lambda3", True, lambda emb, fused, teacher, w, ng:
         distill_loss(emb, _views(teacher, "lambda3"), include_text=w.distill_text,
                      need_grad=ng)),
    Term("parity", "lambda4", False, lambda emb, fused, teacher, w, ng:
         distance_parity_loss(emb, need_grad=ng)),
)}


# the identity loss, each TERMS entry in order, and their weighted sum
LossBreakdown = make_dataclass("LossBreakdown",
                               [(name, float) for name in ("identity", *TERMS, "total")],
                               namespace={"__module__": __name__})


@dataclass
class TotalLoss:
    breakdown: LossBreakdown
    grads: np.ndarray | None         # 4 x N x d, BLOCK_NAMES order
    grad_logits: np.ndarray | None   # 2 x N x C, V then R


def total_loss(emb: EmbeddingSet, fused: FusedSet | None, logits,
               weights: LossWeights, kd_teacher: FusedSet | None = None,
               need_grad: bool = True) -> TotalLoss:
    """The identity loss plus every TERMS entry times its weight, with
    aggregated analytic gradients.

    Terms with a zero weight are skipped (their breakdown entry is 0.0).
    `fused` may be None only when no active term reads the fused views.
    `kd_teacher` optionally pins the distillation teacher to a snapshot
    distinct from `fused`; by default the teacher is `fused` itself (values
    only, never gradients). With `need_grad=False` every term is evaluated
    value-only: the breakdown is the same to the bit, and `grads` and
    `grad_logits` are None. On that path the embeddings and logits may
    carry leading probe axes; each breakdown entry is then an array over
    them wherever its term reads a stacked input.
    """
    l_id, g_logits = identity_loss(logits, emb.labels, need_grad=need_grad)
    grads = np.zeros_like(emb.blocks) if need_grad else None
    teacher = kd_teacher if kd_teacher is not None else fused
    values = dict.fromkeys(TERMS, 0.0)
    for term in TERMS.values():
        coeff = getattr(weights, term.weight)
        if coeff > 0:
            values[term.name], g = term.call(emb, fused, teacher, weights, need_grad)
            if need_grad:
                grads += coeff * g
    # terms that share a weight are added before it scales their sum (as
    # lambda2 does both contrastive terms), though their gradients are scaled
    # one by one
    total = l_id
    for weight, group in groupby(TERMS.values(), key=lambda t: t.weight):
        parts = [values[t.name] for t in group]
        total = total + getattr(weights, weight) * sum(parts[1:], parts[0])
    return TotalLoss(breakdown=LossBreakdown(identity=l_id, **values, total=total),
                     grads=grads, grad_logits=g_logits)
