"""Numeric primitives: RNG streams, parameter store, blocked pairwise
distances, and the finite-difference gradient checker."""

from __future__ import annotations

import numpy as np
import pytest

from xmml import numerics
from xmml.numerics import (DegenerateInputError, ParamStore, derive_rng,
                           derive_seed, finite_difference_check, pairwise_distances)


# ------------------------------------------------------------ rng streams

class TestRngStreams:
    def test_same_tags_same_stream(self):
        a = derive_rng(42, "x", 3).standard_normal(8)
        b = derive_rng(42, "x", 3).standard_normal(8)
        assert np.array_equal(a, b)

    def test_different_tags_differ(self):
        a = derive_rng(42, "x", 3).standard_normal(8)
        b = derive_rng(42, "x", 4).standard_normal(8)
        c = derive_rng(42, "y", 3).standard_normal(8)
        d = derive_rng(43, "x", 3).standard_normal(8)
        for other in (b, c, d):
            assert not np.array_equal(a, other)

    def test_derive_seed_stable(self):
        assert derive_seed(0, "a", 1) == derive_seed(0, "a", 1)
        assert derive_seed(0, "a", 1) != derive_seed(0, "a", 2)


# ------------------------------------------------------ pairwise distances

def broadcast_distances(a, b):
    return np.sqrt(((a[:, None] - b[None]) ** 2).sum(axis=2))


class TestPairwiseDistances:
    # beyond 128 summed terms numpy's pairwise sum recurses; the block sizes
    # split rows unevenly, down to one row per block
    @pytest.mark.parametrize("d", [1, 7, 8, 9, 32, 129, 200])
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 64, 130, 512])
    def test_bit_identical_to_the_broadcast_formula(self, monkeypatch, n, d):
        rng = derive_rng(n, "pairwise", d)
        a = rng.standard_normal((n, d))
        others = [rng.standard_normal((m, d)) for m in (1, 5, n + 3)
                  if n * m * d <= 1 << 22]
        if n * n * d <= 1 << 22:
            others.append(a)
        for cells in (1, 100, numerics._BLOCK_CELLS):
            monkeypatch.setattr(numerics, "_BLOCK_CELLS", cells)
            for b in others:
                assert np.array_equal(pairwise_distances(a, b), broadcast_distances(a, b))

    def test_duplicate_rows_are_exactly_zero(self):
        rng = derive_rng(3, "pairwise-dup")
        a = rng.standard_normal((9, 32))
        a[5] = a[1]
        dist = pairwise_distances(a, a)
        # the triplet's zero-distance subgradient rule needs exact zeros
        assert (np.diag(dist) == 0.0).all()
        assert dist[1, 5] == 0.0 and dist[5, 1] == 0.0
        assert (dist[~np.eye(9, dtype=bool)] > 0.0).sum() == 9 * 8 - 2


# ------------------------------------------------------------- param store

class TestParamStore:
    def test_add_and_lookup(self):
        store = ParamStore()
        store.add("w", np.ones((2, 3)))
        assert "w" in store
        assert store.value("w").shape == (2, 3)
        assert store.grad("w").shape == (2, 3)

    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.add("w", [1.0])
        with pytest.raises(KeyError):
            store.add("w", [2.0])

    def test_nonfinite_value_rejected(self):
        store = ParamStore()
        with pytest.raises(DegenerateInputError):
            store.add("w", [np.nan])

    def test_zero_grads(self):
        store = ParamStore()
        store.add("w", [1.0, 2.0])
        store.grad("w")[...] = 5.0
        store.zero_grads()
        assert np.array_equal(store.grad("w"), [0.0, 0.0])


# ------------------------------------------------- finite-difference check

def _cubic_store():
    store = ParamStore()
    store.add("w", [0.3, -1.2, 2.0])
    store.add("v", [[0.5, -0.4], [1.1, 0.2]])
    return store


def _cubic_evaluate(store: ParamStore, need_grad: bool) -> float:
    """sum(w^3 - 2w) + sum(v^2); gradient 3w^2 - 2 and 2v."""
    w = store.value("w")
    v = store.value("v")
    if need_grad:
        store.grad("w")[...] = 3.0 * w * w - 2.0
        store.grad("v")[...] = 2.0 * v
    return float((w ** 3 - 2.0 * w).sum() + (v * v).sum())


class TestFiniteDifferenceCheck:
    def test_analytic_polynomial_passes_tightly(self):
        report = finite_difference_check(_cubic_evaluate, _cubic_store(),
                                         h=1e-5, tol=1e-4)
        assert report.ok
        assert report.max_rel_err < 1e-8

    def test_corrupted_gradient_is_caught(self):
        def bad_evaluate(store, need_grad):
            val = _cubic_evaluate(store, need_grad)
            if need_grad:
                store.grad("w")[0] += 0.05
            return val

        report = finite_difference_check(bad_evaluate, _cubic_store(),
                                         h=1e-5, tol=1e-4)
        assert not report.ok
        flagged = {e.name: e.n_flagged for e in report.entries}
        assert flagged["w"] >= 1
        assert flagged["v"] == 0

    def test_step_size_bounds_enforced(self):
        with pytest.raises(ValueError):
            finite_difference_check(_cubic_evaluate, _cubic_store(), h=1e-1)
        with pytest.raises(ValueError):
            finite_difference_check(_cubic_evaluate, _cubic_store(), h=1e-9)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_tolerance_that_cannot_fail_is_rejected(self, tol):
        # a NaN or infinite tolerance flags nothing, and one <= 0 flags
        # even exact gradients
        with pytest.raises(ValueError, match="tol"):
            finite_difference_check(_cubic_evaluate, _cubic_store(), tol=tol)

    def test_nonfinite_loss_reported_not_raised(self):
        def inf_evaluate(store, need_grad):
            return float("inf")

        report = finite_difference_check(inf_evaluate, _cubic_store())
        assert not report.ok
        assert all(e.nonfinite for e in report.entries)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_gradient_is_caught(self, bad):
        def bad_evaluate(store, need_grad):
            val = _cubic_evaluate(store, need_grad)
            if need_grad:
                store.grad("v")[1, 0] = bad
            return val

        report = finite_difference_check(bad_evaluate, _cubic_store())
        assert not report.ok
        entries = {e.name: e for e in report.entries}
        assert entries["v"].nonfinite and entries["v"].n_flagged == 1
        assert not entries["w"].nonfinite and entries["w"].n_flagged == 0

    def test_evaluate_contract(self):
        store = _cubic_store()
        start = {name: store.value(name).copy() for name in store.names()}
        for name in store.names():
            store.grad(name)[...] = 7.0   # stale gradients from an earlier pass
        calls = []

        def recording(s, need_grad):
            calls.append((need_grad, all(not s.grad(n).any() for n in s.names())))
            return _cubic_evaluate(s, need_grad)

        finite_difference_check(recording, store)
        n_scalars = sum(store.value(name).size for name in store.names())
        # the first call computes the gradient from zeroed buffers
        assert calls[0] == (True, True)
        # then value-only calls, two probes per scalar: 1 + 2 * n_scalars in all
        assert len(calls) == 1 + 2 * n_scalars
        assert all(not need_grad for need_grad, _ in calls[1:])
        for name in store.names():
            assert store.value(name).tobytes() == start[name].tobytes()
