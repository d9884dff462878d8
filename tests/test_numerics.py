"""Numeric primitives: RNG streams, parameter store, blocked pairwise
distances, and the finite-difference gradient checker."""

from __future__ import annotations

import re

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

    @pytest.mark.parametrize("value", [-1, 2**64, 2**70])
    def test_int_outside_64_bits_raises(self, value):
        # masked to 64 bits, each would alias another seed's stream
        for call in (lambda: derive_rng(value, "x"), lambda: derive_rng(0, "x", value),
                     lambda: derive_seed(value, "x")):
            with pytest.raises(ValueError, match=re.escape(
                    f"seed or tag must be in [0, 2**64), got {value}")):
                call()

    def test_largest_seed_has_its_own_stream(self):
        a = derive_rng(2**64 - 1, "x").standard_normal(8)
        b = derive_rng(0, "x").standard_normal(8)
        assert not np.array_equal(a, b)


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

    @pytest.mark.parametrize("lead", [(1,), (3,), (2, 5)])
    def test_leading_axes_equal_the_2d_calls(self, monkeypatch, lead):
        rng = derive_rng(len(lead), "pairwise-stack", *lead)
        a = rng.standard_normal(lead + (9, 8))
        b = rng.standard_normal(lead + (7, 8))
        # whole slices per block, one slice per block, rows of one slice
        for cells in (1, 100, 7 * 8 * 9 * 2, numerics._BLOCK_CELLS):
            monkeypatch.setattr(numerics, "_BLOCK_CELLS", cells)
            for other in (a, b):
                got = pairwise_distances(a, other)
                want = [pairwise_distances(x, y) for x, y in
                        zip(a.reshape(-1, 9, 8), other.reshape((-1,) + other.shape[-2:]))]
                assert got.shape == lead + (9, other.shape[-2])
                assert np.array_equal(got.reshape((-1,) + got.shape[-2:]), want)

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


def _cubic_evaluate(store: ParamStore, need_grad: bool):
    """sum(w^3 - 2w) + sum(v^2); gradient 3w^2 - 2 and 2v. A probe stack of
    w or v gives one value per probe row."""
    w = store.value("w")
    v = store.value("v")
    if need_grad:
        store.grad("w")[...] = 3.0 * w * w - 2.0
        store.grad("v")[...] = 2.0 * v
    return (w ** 3 - 2.0 * w).sum(axis=-1) + (v * v).sum(axis=(-2, -1))


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

    def test_stacked_value_off_the_2d_value_raises(self):
        # a stacked path that drifts from the 2-D one stops the check before
        # it reports any gradient error
        def drifting(store, need_grad):
            val = _cubic_evaluate(store, need_grad)
            return val if need_grad else np.nextafter(val, np.inf)

        with pytest.raises(numerics.ProbeMismatchError, match="'w'"):
            finite_difference_check(drifting, _cubic_store())
        assert issubclass(numerics.ProbeMismatchError, ArithmeticError)

    def test_evaluate_contract(self, monkeypatch):
        # w has 3 scalars (7 probe rows), v has 4 (9 rows): one row per call,
        # two rows per call, and all of a parameter's rows in one call
        for cells, n_chunks in ((1, 7 + 9), (8, 4 + 5), (numerics._PROBE_CELLS, 1 + 1)):
            monkeypatch.setattr(numerics, "_PROBE_CELLS", cells)
            self._check_evaluate_contract(n_chunks)

    @staticmethod
    def _check_evaluate_contract(n_chunks):
        store = _cubic_store()
        start = {name: store.value(name).copy() for name in store.names()}
        for name in store.names():
            store.grad(name)[...] = 7.0   # stale gradients from an earlier pass
        calls = []

        def recording(s, need_grad):
            if need_grad:
                calls.append((True, all(not s.grad(n).any() for n in s.names())))
            else:
                # a probe view: no gradient buffers, exactly one parameter
                # stacked, every other one the store's own array
                assert not hasattr(s, "grad")
                stacked = [n for n in store.names() if s.value(n) is not store.value(n)]
                assert len(stacked) == 1
                calls.append((stacked[0], s.value(stacked[0]).copy()))
            return _cubic_evaluate(s, need_grad)

        finite_difference_check(recording, store)
        # the first call computes the gradient from zeroed buffers
        assert calls[0] == (True, True)
        # then one value-only call per chunk of each parameter's probe rows:
        # its unperturbed value, then +h and -h at every scalar
        assert len(calls) == 1 + n_chunks
        assert [name for name, _ in calls[1:]] == sorted(
            (name for name, _ in calls[1:]), key=store.names().index)
        for name in store.names():
            base = start[name].reshape(-1)
            want = [base.copy()]
            for i in range(base.size):
                for moved in (base[i] + 1e-5, base[i] - 1e-5):
                    row = base.copy()
                    row[i] = moved
                    want.append(row)
            rows = np.concatenate([stack.reshape(len(stack), -1)
                                   for n, stack in calls[1:] if n == name])
            assert rows.tobytes() == np.array(want).tobytes()
            assert store.value(name).tobytes() == start[name].tobytes()
