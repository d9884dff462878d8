"""Numeric primitives: RNG streams, parameter store, and the
finite-difference gradient checker."""

from __future__ import annotations

import numpy as np
import pytest

from xmml.numerics import (DegenerateInputError, ParamStore, derive_rng,
                           derive_seed, finite_difference_check)


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


def _cubic_loss(store: ParamStore) -> float:
    """sum(w^3 - 2w) + sum(v^2); gradient 3w^2 - 2 and 2v."""
    w = store.value("w")
    v = store.value("v")
    store.zero_grads()
    store.grad("w")[...] = 3.0 * w * w - 2.0
    store.grad("v")[...] = 2.0 * v
    return float((w ** 3 - 2.0 * w).sum() + (v * v).sum())


class TestFiniteDifferenceCheck:
    def test_analytic_polynomial_passes_tightly(self):
        report = finite_difference_check(_cubic_loss, _cubic_store(),
                                         h=1e-5, tol=1e-4)
        assert report.ok
        assert report.max_rel_err < 1e-8

    def test_corrupted_gradient_is_caught(self):
        def bad_loss(store):
            val = _cubic_loss(store)
            store.grad("w")[0] += 0.05
            return val

        report = finite_difference_check(bad_loss, _cubic_store(),
                                         h=1e-5, tol=1e-4)
        assert not report.ok
        flagged = {e.name: e.n_flagged for e in report.entries}
        assert flagged["w"] >= 1
        assert flagged["v"] == 0

    def test_step_size_bounds_enforced(self):
        with pytest.raises(ValueError):
            finite_difference_check(_cubic_loss, _cubic_store(), h=1e-1)
        with pytest.raises(ValueError):
            finite_difference_check(_cubic_loss, _cubic_store(), h=1e-9)

    def test_nonfinite_loss_reported_not_raised(self):
        def inf_loss(store):
            return float("inf")

        report = finite_difference_check(inf_loss, _cubic_store())
        assert not report.ok
        assert all(e.nonfinite for e in report.entries)

    def test_summary_mentions_every_parameter(self):
        report = finite_difference_check(_cubic_loss, _cubic_store())
        text = report.summary()
        assert "w" in text and "v" in text
