"""Gradient-check harness: every loss switch is covered, the value-only
path used for the perturbed evaluations is the loss to the bit, a wrong
gradient is caught in every family, and the cases that fuse rows with
themselves on purpose stay quiet."""

from __future__ import annotations

import logging
from dataclasses import asdict

import numpy as np
import pytest

from xmml import gradcheck, numerics
from xmml.losses import (EmbeddingSet, FusedSet, LossWeights, contrastive_fused,
                         contrastive_pair_loss, contrastive_single,
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
    lv, lr = rng.standard_normal((n, n // 2)), rng.standard_normal((n, n // 2))
    cl = labels if w.label_aware_contrast else None
    return {
        "identity": (identity_loss, (lv, lr, labels), {}),
        "triplet": (weighted_triplet_loss,
                    (np.vstack([emb.f_v, emb.f_r]), np.concatenate([labels, labels])), {}),
        "contrast_pair": (contrastive_pair_loss, (emb.f_v, emb.t_v, w.tau, cl), {}),
        "contrast_single": (contrastive_single, (emb, w.tau, cl), {}),
        "contrast_fused": (contrastive_fused, (fused, w.tau, cl), {}),
        "distill": (distill_loss, (emb, fused), {"include_text": w.distill_text}),
        "parity": (distance_parity_loss, (emb,), {}),
        "total": (total_loss, (emb, fused, lv, lr, w), {}),
    }


@pytest.mark.parametrize("switch", SWITCHES)
def test_value_only_terms_equal_the_full_terms_exactly(switch):
    for name, (fn, args, kwargs) in _terms(SWITCHES[switch]).items():
        full = fn(*args, **kwargs, need_grad=True)
        value = fn(*args, **kwargs, need_grad=False)
        if name == "total":
            assert asdict(value.breakdown) == asdict(full.breakdown)
            assert value.grads is None
            assert value.grad_logits_v is None and value.grad_logits_r is None
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
