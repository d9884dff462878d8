"""Central-difference verification harness for every objective and the model.

Each named check builds a small random batch, packs the quantities being
differentiated into a ParamStore, and wires the loss into
`finite_difference_check`. Distillation teachers are frozen snapshots of the
fused views (matching their stop-gradient semantics), while the fused
contrastive term re-applies the sampled averaging pattern to the perturbed
embeddings, so the numeric derivative sees exactly the function the
analytic gradients describe. The `model` family runs the training step's
own `model.forward`/`model.backward`, so it checks the wiring that trains.
Every case is one `evaluate(store, need_grad)` closure: the analytic
gradient comes from it with `need_grad=True`, and the perturbed evaluations
call it value-only, through the same expressions, on a probe view whose
probed parameter is a stack of probe rows: the losses and the model carry
that leading axis through, so one call evaluates a whole chunk of probes
and returns one value per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .losses import (TERMS, EmbeddingSet, FusedSet, LossWeights, fuse_multiview,
                     identity_loss, total_loss, weighted_triplet_loss)
# unused here; perfbench/selftest.py requires these bindings to stay
from .losses import contrastive_fused, distance_parity_loss, distill_loss  # noqa: F401
from .numerics import ParamStore, derive_rng, derive_seed, finite_difference_check, timed

LOSS_NAMES = ("identity", *TERMS, "total", "model")

# every (N, d) combination the loss contracts are stated over
DEFAULT_SIZES = ((2, 4), (4, 4), (8, 4), (2, 8), (4, 8), (8, 8))


def _labels_for(n: int) -> np.ndarray:
    """Cyclic labels with at least two identities, two rows each when n > 2."""
    n_ids = max(2, n // 2)
    return np.arange(n, dtype=np.int64) % n_ids


def _random_case(n: int, d: int, seed: int, n_classes: int):
    rng = derive_rng(seed, "gradcheck-case", n, d)
    labels = _labels_for(n)
    blocks = rng.standard_normal((4, n, d))     # f_v, f_r, t_v, t_r
    logits = rng.standard_normal((2, n, n_classes))
    return blocks, logits, labels


def build_case(name: str, n: int, d: int, seed: int,
               weights: LossWeights | None = None):
    """Returns (evaluate, store) for one named check.

    `evaluate(store, need_grad)` returns the scalar. With `need_grad=True` it
    also rewrites the analytic gradients; with `need_grad=False` it gives the
    same scalar, bit for bit, without any gradient arithmetic and without
    touching the gradient buffers. Value-only, `store` may also be a probe
    view (see `finite_difference_check`): the result is then one value per
    probe row, each equal to the bit to the call on that row.
    """
    w = weights if weights is not None else LossWeights()
    n_classes = max(2, int(_labels_for(n).max()) + 1)
    blocks, logits, labels = _random_case(n, d, seed, n_classes)

    if name == "identity":
        store = ParamStore()
        store.add("logits", logits)

        def evaluate(s, need_grad):
            val, g = identity_loss(s.value("logits"), labels, need_grad=need_grad)
            if need_grad:
                s.grad("logits")[...] = g
            return val
        return evaluate, store

    if name == "triplet":
        store = ParamStore()
        rng = derive_rng(seed, "gradcheck-stack", n, d)
        store.add("stack", rng.standard_normal((2 * n, d)))
        stack_labels = np.concatenate([labels, labels])

        def evaluate(s, need_grad):
            val, g = weighted_triplet_loss(s.value("stack"), stack_labels,
                                           need_grad=need_grad)
            if need_grad:
                s.grad("stack")[...] = g
            return val
        return evaluate, store

    # triplet is checked above on its 2N x d stack; the other TERMS families
    # and total take the embeddings as one 4 x N x d parameter
    if name in TERMS or name == "total":
        store = ParamStore()
        store.add("emb", blocks)    # 4 x N x d, probed block by block in order
        fused0 = fuse_multiview(EmbeddingSet(store.value("emb"), labels), w.n_fuse,
                                derive_seed(seed, "gradcheck-fuse", n, d),
                                cross_modal=w.cross_modal_fusion)
        if name == "total":
            store.add("logits", logits)   # 2 x N x C, a parameter too

        def evaluate(s, need_grad):
            # fused views re-applied live where the family reads them,
            # distillation teacher frozen at the base point (stop-gradient
            # semantics)
            emb = EmbeddingSet(s.value("emb"), labels)   # a view of the store
            live = (FusedSet.from_mix(emb, fused0.mix_v, fused0.mix_r)
                    if name in ("contrast_fused", "total") else None)
            if name == "total":
                res = total_loss(emb, live, s.value("logits"), w, kd_teacher=fused0,
                                 need_grad=need_grad)
                if need_grad:
                    s.grad("logits")[...] = res.grad_logits
                val, grads = res.breakdown.total, res.grads
            else:
                val, grads = TERMS[name].call(emb, live, fused0, w, need_grad)
            if need_grad:
                s.grad("emb")[...] = grads
            return val
        return evaluate, store

    if name == "model":
        return _build_model_case(n, seed, w)

    raise ValueError(f"unknown check name {name!r}; valid: {', '.join(LOSS_NAMES)}")


# central differences are invalid within the step of a relu kink: a
# pre-activation this close to zero makes the two-sided probe straddle the
# corner, so such batches are redrawn (the subgradient is only checkable
# where the function is locally affine)
_KINK_MARGIN = 1e-3


def _build_model_case(n: int, seed: int, w: LossWeights):
    """Full pipeline: the training step's own model.forward/model.backward
    around the combined objective."""
    d_in = 6
    labels = _labels_for(n)
    n_classes = max(2, int(labels.max()) + 1)
    enc_cfg = model.EncoderConfig(d_in_visual=d_in, d_in_text=d_in,
                                  n_classes=n_classes, d_hidden=8, d_embed=4,
                                  init_scale=0.4,
                                  seed=derive_seed(seed, "gradcheck-model-init", n))
    store = model.init_params(enc_cfg)
    for attempt in range(64):
        rng = derive_rng(seed, "gradcheck-model-data", n, attempt)
        inputs = tuple(rng.standard_normal((n, d_in)) for _ in range(4))  # x_v, x_r, l_v, l_r
        emb0, _, caches = model.forward(store, *inputs)
        # caches[:4] are the encoders'; every pre-activation but the last feeds a relu
        if min(np.abs(a).min() for c in caches[:4] for a in c.pre[:-1]) > _KINK_MARGIN:
            break
    fused0 = fuse_multiview(EmbeddingSet(emb0, labels), w.n_fuse,
                            derive_seed(seed, "gradcheck-model-fuse", n),
                            cross_modal=w.cross_modal_fusion)

    def evaluate(s, need_grad):
        blocks, logits, caches = model.forward(s, *inputs, need_grad=need_grad)
        emb = EmbeddingSet(blocks, labels)
        live = FusedSet.from_mix(emb, fused0.mix_v, fused0.mix_r)
        res = total_loss(emb, live, logits, w, kd_teacher=fused0, need_grad=need_grad)
        if need_grad:
            model.backward(s, caches, res.grads, res.grad_logits)
        return res.breakdown.total

    return evaluate, store


@dataclass
class CheckSummary:
    name: str
    n_batches: int
    max_rel_err: float
    n_failed: int


def check_loss(name: str, n_batches: int = 50, sizes=DEFAULT_SIZES,
               h: float = 1e-5, tol: float = 1e-4, seed: int = 0,
               weights: LossWeights | None = None) -> CheckSummary:
    """Run `n_batches` seeded random batches of one named check."""
    if n_batches < 1:
        raise ValueError(f"n_batches must be >= 1, got {n_batches}")
    for n, d in sizes:
        # N >= 2 gives every anchor of the triplet a negative
        if n < 2 or d < 1:
            raise ValueError(f"batch size {n}x{d} needs N >= 2 and d >= 1")
    n_failed = 0
    max_rel = 0.0
    for b in range(n_batches):
        n, d = sizes[b % len(sizes)]
        evaluate, store = build_case(name, n, d, derive_seed(seed, name, b), weights=weights)
        report = finite_difference_check(evaluate, store, h=h, tol=tol)
        max_rel = max(max_rel, report.max_rel_err)
        if not report.ok:
            n_failed += 1
    return CheckSummary(name=name, n_batches=n_batches,
                        max_rel_err=max_rel, n_failed=n_failed)


def run_all(names=LOSS_NAMES, n_batches: int = 50, sizes=DEFAULT_SIZES,
            h: float = 1e-5, tol: float = 1e-4, seed: int = 0,
            weights: LossWeights | None = None,
            timings: dict[str, float] | None = None) -> list[CheckSummary]:
    """One `check_loss` summary per name, in order; with `timings`, each
    check's wall time is added under its name."""
    summaries = []
    for name in names:
        with timed(timings, name):
            summaries.append(check_loss(name, n_batches=n_batches, sizes=sizes, h=h,
                                        tol=tol, seed=seed, weights=weights))
    return summaries
