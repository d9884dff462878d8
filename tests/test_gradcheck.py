"""Gradient-check harness: every loss switch is covered, the value-only
path used for the perturbed evaluations is the loss to the bit, a wrong
gradient is caught in every family, and the cases that fuse rows with
themselves on purpose stay quiet."""

from __future__ import annotations

import logging
from dataclasses import asdict, fields

import numpy as np
import pytest

from xmml import gradcheck, numerics
from xmml.losses import (TERMS, EmbeddingSet, FusedSet, LossBreakdown, LossWeights,
                         contrastive_fused, contrastive_pair_loss, contrastive_single,
                         distance_parity_loss, distill_loss, fuse_multiview,
                         identity_loss, total_loss, weighted_triplet_loss)
from xmml.numerics import derive_rng

# each switch of the combined objective on its own, then all of them at once
SWITCHES = {
    "label_aware_contrast": LossWeights(label_aware_contrast=True),
    "cross_modal_fusion": LossWeights(cross_modal_fusion=True),
    "no_distill_text": LossWeights(distill_text=False),
    "n_fuse_0": LossWeights(n_fuse=0),
    "n_fuse_3": LossWeights(n_fuse=3),
    "all": LossWeights(label_aware_contrast=True, cross_modal_fusion=True,
                       distill_text=False, n_fuse=3),
}

# the switches, every weight at zero, and each weight at zero alone
WEIGHT_CASES = {
    **SWITCHES,
    "all_zero": LossWeights(lambda1=0.0, lambda2=0.0, lambda3=0.0, lambda4=0.0),
    **{f"{k}_zero": LossWeights(**{k: 0.0}) for k in ("lambda1", "lambda2", "lambda3", "lambda4")},
}


@pytest.mark.parametrize("switch", SWITCHES)
def test_total_gradient_holds_under_every_loss_switch(switch):
    # one batch of each default size
    summary = gradcheck.check_loss("total", n_batches=len(gradcheck.DEFAULT_SIZES),
                                   weights=SWITCHES[switch])
    assert summary.n_failed == 0, f"max_rel_err {summary.max_rel_err:.3e}"


def test_self_fusing_n2_cases_log_nothing(caplog):
    # the N=2 sizes give every row its own identity, so every fusing family
    # fuses rows with themselves on purpose
    with caplog.at_level(logging.DEBUG, logger="xmml.losses"):
        summaries = gradcheck.run_all(n_batches=1)
    assert all(s.n_failed == 0 for s in summaries)
    assert not [r for r in caplog.records if r.name == "xmml.losses"]


def _terms(w: LossWeights):
    """Each loss term at one random batch under `w`: name -> (fn, args, kwargs)."""
    n, d = 8, 4
    rng = derive_rng(0, "value-path", n, d)
    labels = np.arange(n) % (n // 2)
    emb = EmbeddingSet(np.stack([rng.standard_normal((n, d)) for _ in range(4)]), labels)
    fused = fuse_multiview(emb, w.n_fuse, 7, cross_modal=w.cross_modal_fusion)
    logits = rng.standard_normal((2, n, n // 2))
    cl = labels if w.label_aware_contrast else None
    return {
        "identity": (identity_loss, (logits, labels), {}),
        "triplet": (weighted_triplet_loss,
                    (np.vstack(emb.blocks[:2]), np.concatenate([labels, labels])), {}),
        "contrast_pair": (contrastive_pair_loss, (emb.blocks[0], emb.blocks[2], w.tau, cl), {}),
        "contrast_single": (contrastive_single, (emb, w.tau, cl), {}),
        "contrast_fused": (contrastive_fused, (fused, w.tau, cl), {}),
        "distill": (distill_loss, (emb, fused), {"include_text": w.distill_text}),
        "parity": (distance_parity_loss, (emb,), {}),
        "total": (total_loss, (emb, fused, logits, w), {}),
    }


def _total_as_written(emb, fused, logits, w):
    """The objective written out term by term: l_id + l1 l_wrt + l2 (l_single
    + l_fused) + l3 l_kd + l4 l_par, each active term's gradient scaled and
    added in that order. The reference the term table is pinned to."""
    n = emb.n
    l_id, g_logits = identity_loss(logits, emb.labels)
    grads = np.zeros_like(emb.blocks)
    l_wrt = l_single = l_fused = l_kd = l_par = 0.0
    cl = emb.labels if w.label_aware_contrast else None
    if w.lambda1 > 0:
        l_wrt, g = weighted_triplet_loss(np.vstack(emb.blocks[:2]),
                                         np.concatenate([emb.labels, emb.labels]))
        grads[:2] += w.lambda1 * g.reshape(2, n, -1)
    if w.lambda2 > 0:
        l_single, g_single = contrastive_single(emb, w.tau, cl)
        l_fused, g_fused = contrastive_fused(fused, w.tau, cl)
        grads += w.lambda2 * g_single
        grads += w.lambda2 * g_fused
    if w.lambda3 > 0:
        l_kd, g = distill_loss(emb, fused, include_text=w.distill_text)
        grads += w.lambda3 * g
    if w.lambda4 > 0:
        l_par, g = distance_parity_loss(emb)
        grads += w.lambda4 * g
    total = (l_id + w.lambda1 * l_wrt + w.lambda2 * (l_single + l_fused)
             + w.lambda3 * l_kd + w.lambda4 * l_par)
    breakdown = LossBreakdown(identity=l_id, triplet=l_wrt, contrast_single=l_single,
                              contrast_fused=l_fused, distill=l_kd, parity=l_par,
                              total=total)
    return breakdown, grads, g_logits


def test_terms_follow_the_breakdown_order():
    assert list(TERMS) == [f.name for f in fields(LossBreakdown)][1:-1]


@pytest.mark.parametrize("case", WEIGHT_CASES)
def test_total_loss_is_the_objective_as_written(case):
    w = WEIGHT_CASES[case]
    for seed in range(4):
        for n, d in gradcheck.DEFAULT_SIZES:
            rng = derive_rng(seed, "as-written", n, d)
            labels = np.arange(n) % max(2, n // 2)
            emb = EmbeddingSet(rng.standard_normal((4, n, d)), labels)
            fused = fuse_multiview(emb, w.n_fuse, seed, cross_modal=w.cross_modal_fusion)
            logits = rng.standard_normal((2, n, max(2, n // 2)))
            breakdown, grads, g_logits = _total_as_written(emb, fused, logits, w)
            res = total_loss(emb, fused, logits, w)
            for name, value in asdict(breakdown).items():
                assert getattr(res.breakdown, name) == value, (name, seed, n, d)
            assert np.array_equal(res.grads, grads)
            assert np.array_equal(res.grad_logits, g_logits)


@pytest.mark.parametrize("case", WEIGHT_CASES)
def test_fusion_predicate_is_lambda2_or_lambda3(case):
    w = WEIGHT_CASES[case]
    assert w.reads_fused == (w.lambda2 > 0 or w.lambda3 > 0)


@pytest.mark.parametrize("switch", SWITCHES)
def test_value_only_terms_equal_the_full_terms_exactly(switch):
    for name, (fn, args, kwargs) in _terms(SWITCHES[switch]).items():
        full = fn(*args, **kwargs, need_grad=True)
        value = fn(*args, **kwargs, need_grad=False)
        if name == "total":
            assert asdict(value.breakdown) == asdict(full.breakdown)
            assert value.grads is None
            assert value.grad_logits is None
            assert full.grads is not None
        else:
            assert value[0] == full[0], name
            assert all(g is None for g in value[1:]), name
            assert all(g is not None for g in full[1:]), name


@pytest.mark.parametrize("switch", SWITCHES)
@pytest.mark.parametrize("name", gradcheck.LOSS_NAMES)
def test_value_fn_is_the_loss_to_the_bit(name, switch):
    evaluate, store = gradcheck.build_case(name, 4, 4, seed=3, weights=SWITCHES[switch])
    for perturbed in (False, True):
        if perturbed:
            for param in store.names():
                # the first entry of every row, so each embedding block moves
                store.value(param)[..., 0] += 1e-5
        store.zero_grads()
        value = evaluate(store, False)
        # value-only: the gradient buffers are left alone
        assert all(not store.grad(param).any() for param in store.names())
        assert value == evaluate(store, True)


@pytest.mark.parametrize("name", gradcheck.LOSS_NAMES)
def test_corrupted_gradient_is_caught_in_every_family(name, corrupt_gradcheck):
    clean = gradcheck.check_loss(name, n_batches=1)
    assert clean.n_failed == 0
    corrupt_gradcheck(name)
    summary = gradcheck.check_loss(name, n_batches=1)
    assert summary.n_failed == 1


@pytest.mark.parametrize("name", ["contrast_single", "contrast_fused", "distill",
                                  "parity", "total", "model"])
def test_live_fused_views_built_only_where_read(monkeypatch, name):
    evaluate, store = gradcheck.build_case(name, 4, 4, seed=0)
    calls = []
    from_mix = FusedSet.from_mix.__func__

    def counting(cls, *args):
        calls.append(name)
        return from_mix(cls, *args)
    monkeypatch.setattr(FusedSet, "from_mix", classmethod(counting))
    evaluate(store, True)
    evaluate(store, False)
    reads_live = name in ("contrast_fused", "total", "model")
    assert len(calls) == (2 if reads_live else 0)


@pytest.mark.parametrize("switch", SWITCHES)
@pytest.mark.parametrize("name", gradcheck.LOSS_NAMES)
def test_stacked_probes_equal_single_probe_calls(name, switch):
    # every probe row of every parameter in one stacked value-only pass,
    # against one 2-D call per row on the store itself
    h = 1e-5
    for n, d in gradcheck.DEFAULT_SIZES:
        evaluate, store = gradcheck.build_case(name, n, d, seed=5, weights=SWITCHES[switch])
        for param in store.names():
            value = store.value(param)
            base = value.copy()
            rows = [base.reshape(-1)]
            for i in range(base.size):
                for moved in (base.flat[i] + h, base.flat[i] - h):
                    row = base.reshape(-1).copy()
                    row[i] = moved
                    rows.append(row)
            stack = np.array(rows).reshape((len(rows),) + base.shape)
            view = numerics._ProbeView(store, param, stack)
            stacked = np.broadcast_to(evaluate(view, False), (len(rows),))
            single = []
            for row in stack:
                value[...] = row
                single.append(evaluate(store, False))
            value[...] = base
            assert np.array_equal(stacked, single), (param, n, d)
