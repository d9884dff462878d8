"""Objective suite for paired two-modality embeddings with text alignment.

A batch row carries four embeddings of one identity: an image embedding and
a text embedding from each of the two modalities (tagged V and R). On top of
these the suite provides

  * a softmax identity loss over per-modality classifier logits,
  * a softmax-weighted triplet objective over the stacked two-modality batch,
  * bidirectional image-text contrastive terms, one-to-one and on fused
    multi-view representations,
  * a distillation term pulling single-view embeddings toward their fused
    versions (fused side treated as constant), and
  * a distance-parity term that penalizes any gap between within-modality
    and cross-modality image-text distances.

Every op returns (scalar, analytic gradients). The gradients are derived by
hand and verified with central differences in the test suite; there is no
autodiff tape anywhere.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import expit

from .numerics import DegenerateInputError, DimensionError, ProtocolError, derive_rng

log = logging.getLogger(__name__)


def _logsumexp(s: np.ndarray, axis: int) -> np.ndarray:
    # inline rather than scipy: called in hot loops on tiny matrices
    m = s.max(axis=axis, keepdims=True)
    return m + np.log(np.exp(s - m).sum(axis=axis, keepdims=True))

# distances below this are treated as zero; their derivative direction is
# undefined so the subgradient used is the zero vector
_DIST_EPS = 1e-12


@dataclass
class EmbeddingSet:
    """Row-aligned embeddings for one batch: images f_*, texts t_*."""

    f_v: np.ndarray
    f_r: np.ndarray
    t_v: np.ndarray
    t_r: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.f_v = np.asarray(self.f_v, dtype=np.float64)
        self.f_r = np.asarray(self.f_r, dtype=np.float64)
        self.t_v = np.asarray(self.t_v, dtype=np.float64)
        self.t_r = np.asarray(self.t_r, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        shape = self.f_v.shape
        if len(shape) != 2 or shape[0] < 1 or shape[1] < 1:
            raise DimensionError(f"blocks must be N x d with N,d >= 1, got {shape}")
        for name in ("f_r", "t_v", "t_r"):
            if getattr(self, name).shape != shape:
                raise DimensionError(
                    f"block {name} has shape {getattr(self, name).shape}, expected {shape}")
        if self.labels.shape != (shape[0],):
            raise DimensionError(
                f"labels must have shape ({shape[0]},), got {self.labels.shape}")
        for name in ("f_v", "f_r", "t_v", "t_r"):
            if not np.isfinite(getattr(self, name)).all():
                raise DegenerateInputError(f"block {name} has non-finite entries")

    @property
    def n(self) -> int:
        return self.f_v.shape[0]

    @property
    def dim(self) -> int:
        return self.f_v.shape[1]


@dataclass
class EmbeddingGrads:
    """Gradient of a scalar loss with respect to the four embedding blocks."""

    f_v: np.ndarray
    f_r: np.ndarray
    t_v: np.ndarray
    t_r: np.ndarray

    @classmethod
    def zeros(cls, emb: EmbeddingSet) -> "EmbeddingGrads":
        return cls(*(np.zeros((emb.n, emb.dim)) for _ in range(4)))

    def add_scaled(self, other: "EmbeddingGrads", coeff: float) -> None:
        self.f_v += coeff * other.f_v
        self.f_r += coeff * other.f_r
        self.t_v += coeff * other.t_v
        self.t_r += coeff * other.t_r


@dataclass
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

    def validate(self) -> None:
        for name in ("lambda1", "lambda2", "lambda3", "lambda4"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.tau <= 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if self.n_fuse < 0 or int(self.n_fuse) != self.n_fuse:
            raise ValueError(f"n_fuse must be a non-negative integer, got {self.n_fuse}")


@dataclass
class LossBreakdown:
    identity: float
    triplet: float
    contrast_single: float
    contrast_fused: float
    distill: float
    parity: float
    total: float

    def as_dict(self) -> dict[str, float]:
        return {
            "identity": self.identity,
            "triplet": self.triplet,
            "contrast_single": self.contrast_single,
            "contrast_fused": self.contrast_fused,
            "distill": self.distill,
            "parity": self.parity,
            "total": self.total,
        }


def identity_loss(logits_v, logits_r, labels):
    """Mean cross-entropy of both modality branches against shared labels.

    Returns (loss, grad_logits_v, grad_logits_r); each gradient is
    (softmax - onehot) / N for its branch.
    """
    lv = np.asarray(logits_v, dtype=np.float64)
    lr = np.asarray(logits_r, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if lv.ndim != 2 or lv.shape != lr.shape:
        raise DimensionError(f"logit blocks must share an N x C shape, got {lv.shape} vs {lr.shape}")
    n, c = lv.shape
    if c < 2:
        raise DimensionError(f"need at least 2 classes, got {c}")
    if y.shape != (n,):
        raise DimensionError(f"labels must have shape ({n},), got {y.shape}")
    if (y < 0).any() or (y >= c).any():
        bad = int(y[(y < 0) | (y >= c)][0])
        raise IndexError(f"label {bad} out of range for {c} classes")

    loss = 0.0
    grads = []
    rows = np.arange(n)
    for lg in (lv, lr):
        logp = lg - _logsumexp(lg, axis=1)
        loss += -logp[rows, y].mean()
        g = np.exp(logp)
        g[rows, y] -= 1.0
        grads.append(g / n)
    return float(loss), grads[0], grads[1]


def weighted_triplet_loss(stack, labels):
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
    if f.ndim != 2:
        raise DimensionError(f"stack must be 2-D, got shape {f.shape}")
    n = f.shape[0]
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

    diff = f[:, None, :] - f[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))

    neg_inf = np.float64(-np.inf)
    wp_logits = np.where(pos, dist, neg_inf)
    wp = np.exp(wp_logits - wp_logits.max(axis=1, keepdims=True))
    wp /= wp.sum(axis=1, keepdims=True)
    sp = (wp * dist).sum(axis=1)

    wn_logits = np.where(neg, -dist, neg_inf)
    wn = np.exp(wn_logits - wn_logits.max(axis=1, keepdims=True))
    wn /= wn.sum(axis=1, keepdims=True)
    sn = (wn * dist).sum(axis=1)

    a = sp - sn
    loss = float(np.logaddexp(0.0, a).mean())

    # dL/da_i = sigmoid(a_i) / n; the weighted sums differentiate to
    #   d(sp_i)/d(dist_im) = wp_im (1 + dist_im - sp_i)        for positives
    #   d(sn_i)/d(dist_im) = wn_im (1 + sn_i - dist_im)        for negatives
    g = expit(a) / n
    term_p = wp * (1.0 + dist - sp[:, None])
    term_n = wn * (1.0 + sn[:, None] - dist)
    gmat = g[:, None] * (term_p - term_n)

    h = np.zeros_like(dist)
    np.divide(gmat, dist, out=h, where=dist > _DIST_EPS)
    k = h + h.T
    grad = k.sum(axis=1, keepdims=True) * f - k @ f
    return loss, grad


def _normalize_rows(x: np.ndarray, side: str):
    norms = np.linalg.norm(x, axis=1)
    if (norms == 0.0).any():
        i = int(np.flatnonzero(norms == 0.0)[0])
        raise DegenerateInputError(f"{side} row {i} has zero norm")
    return x / norms[:, None], norms


def _denormalize_grad(g_hat: np.ndarray, x_hat: np.ndarray, norms: np.ndarray):
    # x_hat = x / |x|; pull a gradient on x_hat back onto x
    inner = (g_hat * x_hat).sum(axis=1, keepdims=True)
    return (g_hat - inner * x_hat) / norms[:, None]


def contrastive_pair_loss(f, t, tau: float, labels=None):
    """Bidirectional softmax contrastive loss between two row-aligned sides.

    Scores are cosine similarities divided by `tau`; row i of `f` matches
    column i of `t` and vice versa. With `labels` given, every same-label
    column counts as a positive (mean log-prob over positives) instead of
    just the diagonal. Returns (loss, grad_f, grad_t).
    """
    f = np.asarray(f, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if f.ndim != 2 or f.shape != t.shape:
        raise DimensionError(f"sides must share an N x d shape, got {f.shape} vs {t.shape}")
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    n = f.shape[0]

    f_hat, f_norms = _normalize_rows(f, "image side")
    t_hat, t_norms = _normalize_rows(t, "text side")
    s = (f_hat @ t_hat.T) / tau

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

    log_a = s - _logsumexp(s, axis=1)
    log_b = s - _logsumexp(s, axis=0)
    loss = float(-(q_row * log_a).sum() / n - (q_col * log_b).sum() / n)

    g_s = (np.exp(log_a) - q_row + np.exp(log_b) - q_col) / n
    g_c = g_s / tau
    grad_f = _denormalize_grad(g_c @ t_hat, f_hat, f_norms)
    grad_t = _denormalize_grad(g_c.T @ f_hat, t_hat, t_norms)
    return loss, grad_f, grad_t


def contrastive_single(emb: EmbeddingSet, tau: float, labels=None):
    """One-to-one image-text contrastive term, summed over both modalities."""
    l_v, gf_v, gt_v = contrastive_pair_loss(emb.f_v, emb.t_v, tau, labels)
    l_r, gf_r, gt_r = contrastive_pair_loss(emb.f_r, emb.t_r, tau, labels)
    return l_v + l_r, EmbeddingGrads(f_v=gf_v, f_r=gf_r, t_v=gt_v, t_r=gt_r)


@dataclass
class FusedSet:
    """Multi-view averaged embeddings plus the averaging that produced them.

    `mix_v` and `mix_r` are N x 2N row-averaging matrices over the stacked
    blocks [*_v; *_r], so fm_v = mix_v @ vstack(f_v, f_r) and likewise for
    texts; gradients flow back through the transpose. Partner lists record
    the sampled stack indices per row (possibly with repeats).
    """

    fm_v: np.ndarray
    fm_r: np.ndarray
    tm_v: np.ndarray
    tm_r: np.ndarray
    n_fuse: int
    mix_v: np.ndarray
    mix_r: np.ndarray
    partners_v: list[list[int]] = field(default_factory=list)
    partners_r: list[list[int]] = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.fm_v.shape[0]

    @classmethod
    def from_mix(cls, emb: EmbeddingSet, mix_v: np.ndarray, mix_r: np.ndarray,
                 n_fuse: int) -> "FusedSet":
        """Re-apply a fixed averaging pattern to (possibly new) embeddings."""
        stack_f = np.vstack([emb.f_v, emb.f_r])
        stack_t = np.vstack([emb.t_v, emb.t_r])
        return cls(fm_v=mix_v @ stack_f, fm_r=mix_r @ stack_f,
                   tm_v=mix_v @ stack_t, tm_r=mix_r @ stack_t,
                   n_fuse=n_fuse, mix_v=mix_v, mix_r=mix_r)


def fuse_multiview(emb: EmbeddingSet, candidates, n_fuse: int, rng_seed: int,
                   cross_modal: bool = False) -> FusedSet:
    """Average each row with `n_fuse` sampled same-identity partner rows.

    `candidates[i]` lists batch row indices usable as partners for row i
    (normally same identity, excluding i). Sampling is without replacement
    when enough distinct candidates exist, with replacement otherwise, and
    falls back to the row itself (with a warning) when the list is empty.
    The same sampled
    partners are applied to the image block and its paired text block.
    With `cross_modal` the partner pool includes the other modality's rows.
    """
    n = emb.n
    if n_fuse < 0:
        raise ValueError(f"n_fuse must be >= 0, got {n_fuse}")
    if len(candidates) != n:
        raise DimensionError(f"need {n} candidate lists, got {len(candidates)}")
    for i, cand in enumerate(candidates):
        for c in cand:
            if not 0 <= int(c) < n:
                raise IndexError(f"candidate {c} for row {i} outside batch of {n}")

    if n_fuse == 0:
        mix_v = np.hstack([np.eye(n), np.zeros((n, n))])
        mix_r = np.hstack([np.zeros((n, n)), np.eye(n)])
        return FusedSet(fm_v=emb.f_v.copy(), fm_r=emb.f_r.copy(),
                        tm_v=emb.t_v.copy(), tm_r=emb.t_r.copy(),
                        n_fuse=0, mix_v=mix_v, mix_r=mix_r,
                        partners_v=[[] for _ in range(n)],
                        partners_r=[[] for _ in range(n)])

    rng = derive_rng(rng_seed, "fuse")
    w = 1.0 / (n_fuse + 1)
    mix_v = np.zeros((n, 2 * n))
    mix_r = np.zeros((n, 2 * n))
    partners_v: list[list[int]] = []
    partners_r: list[list[int]] = []
    n_fallback = 0

    for i in range(n):
        cand = [int(c) for c in candidates[i]]
        for mix, offset, record in ((mix_v, 0, partners_v), (mix_r, n, partners_r)):
            self_idx = offset + i
            if cross_modal:
                pool = [c for c in cand] + [c + n for c in cand]
            else:
                pool = [c + offset for c in cand]
            if not pool:
                n_fallback += 1
                chosen = [self_idx] * n_fuse
            elif len(pool) >= n_fuse:
                chosen = [int(c) for c in rng.choice(pool, size=n_fuse, replace=False)]
            else:
                chosen = [int(c) for c in rng.choice(pool, size=n_fuse, replace=True)]
            mix[i, self_idx] += w
            for c in chosen:
                mix[i, c] += w
            record.append(chosen)

    if n_fallback:
        log.warning("fuse_multiview: %d row/modality slots had no candidates, "
                    "fused with themselves", n_fallback)

    fused = FusedSet.from_mix(emb, mix_v, mix_r, n_fuse)
    fused.partners_v = partners_v
    fused.partners_r = partners_r
    return fused


def contrastive_fused(fused: FusedSet, tau: float, labels=None):
    """Contrastive term on fused views; gradients flow through the averaging.

    Returns (loss, grads w.r.t. the original single-view blocks).
    """
    n = fused.n
    l_v, gf_v, gt_v = contrastive_pair_loss(fused.fm_v, fused.tm_v, tau, labels)
    l_r, gf_r, gt_r = contrastive_pair_loss(fused.fm_r, fused.tm_r, tau, labels)
    g_stack_f = fused.mix_v.T @ gf_v + fused.mix_r.T @ gf_r
    g_stack_t = fused.mix_v.T @ gt_v + fused.mix_r.T @ gt_r
    grads = EmbeddingGrads(f_v=g_stack_f[:n], f_r=g_stack_f[n:],
                           t_v=g_stack_t[:n], t_r=g_stack_t[n:])
    return l_v + l_r, grads


def distill_loss(emb: EmbeddingSet, fused: FusedSet, include_text: bool = True):
    """Mean squared pull of each single-view block toward its fused version.

    The fused side is a teacher: it is treated as a constant, so gradients
    land only on the single-view blocks.
    """
    if fused.n != emb.n:
        raise DimensionError(f"fused set has {fused.n} rows, batch has {emb.n}")
    n = emb.n
    pairs = [("f_v", emb.f_v, fused.fm_v), ("f_r", emb.f_r, fused.fm_r)]
    if include_text:
        pairs += [("t_v", emb.t_v, fused.tm_v), ("t_r", emb.t_r, fused.tm_r)]

    loss = 0.0
    grads = EmbeddingGrads.zeros(emb)
    for name, single, teacher in pairs:
        resid = teacher - single
        loss += float((resid * resid).sum() / n)
        setattr(grads, name, getattr(grads, name) + (2.0 / n) * (single - teacher))
    return loss, grads


def _row_norms_and_units(diff: np.ndarray):
    d = np.linalg.norm(diff, axis=1)
    units = np.zeros_like(diff)
    np.divide(diff, d[:, None], out=units, where=d[:, None] > _DIST_EPS)
    return d, units


def distance_parity_loss(emb: EmbeddingSet):
    """Penalty on the gap between within- and cross-modality image-text distances.

    Per row: (|f_v - t_v| - |f_v - t_r|)^2 + (|f_r - t_r| - |f_r - t_v|)^2,
    averaged over the batch. Rows at zero distance contribute a zero
    subgradient for that distance.
    """
    n = emb.n
    d_vv, u_vv = _row_norms_and_units(emb.f_v - emb.t_v)
    d_vr, u_vr = _row_norms_and_units(emb.f_v - emb.t_r)
    d_rr, u_rr = _row_norms_and_units(emb.f_r - emb.t_r)
    d_rv, u_rv = _row_norms_and_units(emb.f_r - emb.t_v)

    gap_v = d_vv - d_vr
    gap_r = d_rr - d_rv
    loss = float((gap_v * gap_v).mean() + (gap_r * gap_r).mean())

    c_v = (2.0 / n) * gap_v[:, None]
    c_r = (2.0 / n) * gap_r[:, None]
    grads = EmbeddingGrads(
        f_v=c_v * (u_vv - u_vr),
        f_r=c_r * (u_rr - u_rv),
        t_v=-c_v * u_vv + c_r * u_rv,
        t_r=c_v * u_vr - c_r * u_rr,
    )
    return loss, grads


@dataclass
class TotalLoss:
    breakdown: LossBreakdown
    grads: EmbeddingGrads
    grad_logits_v: np.ndarray
    grad_logits_r: np.ndarray


def total_loss(emb: EmbeddingSet, fused: FusedSet | None, logits_v, logits_r,
               weights: LossWeights, kd_teacher: FusedSet | None = None) -> TotalLoss:
    """Weighted combination of all terms, with aggregated analytic gradients.

    Components with a zero coefficient are skipped (their breakdown entry is
    0.0). `fused` may be None only when neither the fused contrastive nor
    the distillation term is active. `kd_teacher` optionally pins the
    distillation teacher to a snapshot distinct from `fused`; by default the
    teacher is `fused` itself (values only, never gradients).
    """
    weights.validate()
    n = emb.n

    l_id, g_logits_v, g_logits_r = identity_loss(logits_v, logits_r, emb.labels)
    grads = EmbeddingGrads.zeros(emb)
    l_wrt = l_single = l_fused = l_kd = l_par = 0.0

    if weights.lambda1 > 0:
        stack = np.vstack([emb.f_v, emb.f_r])
        stack_labels = np.concatenate([emb.labels, emb.labels])
        l_wrt, g_stack = weighted_triplet_loss(stack, stack_labels)
        grads.f_v += weights.lambda1 * g_stack[:n]
        grads.f_r += weights.lambda1 * g_stack[n:]

    if weights.lambda2 > 0:
        contrast_labels = emb.labels if weights.label_aware_contrast else None
        l_single, g_single = contrastive_single(emb, weights.tau, contrast_labels)
        grads.add_scaled(g_single, weights.lambda2)
        if fused is None:
            raise ProtocolError("fused views required when lambda2 > 0")
        l_fused, g_fused = contrastive_fused(fused, weights.tau, contrast_labels)
        grads.add_scaled(g_fused, weights.lambda2)

    if weights.lambda3 > 0:
        teacher = kd_teacher if kd_teacher is not None else fused
        if teacher is None:
            raise ProtocolError("fused views required when lambda3 > 0")
        l_kd, g_kd = distill_loss(emb, teacher, include_text=weights.distill_text)
        grads.add_scaled(g_kd, weights.lambda3)

    if weights.lambda4 > 0:
        l_par, g_par = distance_parity_loss(emb)
        grads.add_scaled(g_par, weights.lambda4)

    total = (l_id + weights.lambda1 * l_wrt
             + weights.lambda2 * (l_single + l_fused)
             + weights.lambda3 * l_kd + weights.lambda4 * l_par)
    breakdown = LossBreakdown(identity=l_id, triplet=l_wrt,
                              contrast_single=l_single, contrast_fused=l_fused,
                              distill=l_kd, parity=l_par, total=total)
    return TotalLoss(breakdown=breakdown, grads=grads,
                     grad_logits_v=g_logits_v, grad_logits_r=g_logits_r)


def weights_with(base: LossWeights, **overrides) -> LossWeights:
    """Copy of `base` with fields replaced; ablation grids lean on this."""
    return replace(base, **overrides)
