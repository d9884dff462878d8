"""Objective suite: hand-computed values, analytic zero/identity cases,
structural invariants, and agreement with independent scalar oracles."""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import embedding_set, random_embedding_set
from xmml.losses import (BLOCK_NAMES, EmbeddingSet, FusedSet, LossWeights, _expit,
                         contrastive_fused, contrastive_pair_loss,
                         contrastive_single, distance_parity_loss,
                         distill_loss, fuse_multiview, identity_loss,
                         total_loss, weighted_triplet_loss)
from xmml import gradcheck
from xmml.numerics import (DegenerateInputError, DimensionError, ProtocolError,
                           derive_rng)
from xmml.synthdata import sample_batch

LN2 = math.log(2.0)


def fuse_paired(emb: EmbeddingSet, seed: int = 0) -> FusedSet:
    """Fusion over paired identities: one partner per row, deterministic
    regardless of rng."""
    assert (np.bincount(emb.labels) == 2).all(), "fixture wants paired identities"
    return fuse_multiview(emb, n_fuse=1, rng_seed=seed)


# ---------------------------------------------------------- embedding set

class TestEmbeddingSet:
    def test_blocks_are_views_of_one_array(self):
        blocks = derive_rng(0, "emb-views").standard_normal((4, 3, 2))
        emb = EmbeddingSet(blocks, [0, 1, 0])
        assert emb.blocks is blocks
        assert (emb.n, emb.dim) == (3, 2)

    @pytest.mark.parametrize("shape", [(3, 2, 4), (5, 2, 4), (1, 2, 4), (4, 2),
                                       (4, 0, 3), (4, 2, 0), (2, 3, 2, 4)])
    def test_blocks_must_be_four_by_n_by_d(self, shape):
        with pytest.raises(DimensionError, match="4 x N x d"):
            EmbeddingSet(np.ones(shape), np.zeros(2, dtype=np.int64))

    def test_labels_must_have_one_entry_per_row(self):
        with pytest.raises(DimensionError, match="labels"):
            EmbeddingSet(np.ones((4, 3, 2)), [0, 1])

    @pytest.mark.parametrize("k, name", list(enumerate(BLOCK_NAMES)))
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_names_its_block(self, k, name, bad):
        blocks = np.ones((4, 3, 2))
        blocks[k, 2, 1] = bad
        if k < 3:
            blocks[3, 0, 0] = -np.inf   # a later block is not the one named
        with pytest.raises(DegenerateInputError, match=f"block {name} has non-finite"):
            EmbeddingSet(blocks, [0, 1, 2])


# ----------------------------------------------------------- identity loss

class TestIdentityLoss:
    def test_uniform_logits_give_twice_log_n_classes(self):
        loss, _ = identity_loss(np.zeros((2, 1, 4)), [0])
        assert abs(loss - 2.0 * math.log(4.0)) < 1e-10

    def test_saturated_correct_prediction_vanishes(self):
        logits = np.zeros((1, 4))
        logits[0, 2] = 50.0
        loss, _ = identity_loss(np.stack([logits, logits]), [2])
        assert loss < 1e-10

    def test_two_class_hand_value(self):
        loss, _ = identity_loss([[[1.0, 0.0]], [[0.0, 1.0]]], [0])
        assert abs(loss - 1.62652) < 1e-5
        expected = math.log(1 + math.exp(-1.0)) + math.log(1 + math.exp(1.0))
        assert abs(loss - expected) < 1e-12

    def test_matches_scalar_oracle_on_random_batches(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n, c = int(rng.integers(1, 6)), int(rng.integers(2, 7))
            lv = rng.standard_normal((n, c))
            lr = rng.standard_normal((n, c))
            y = rng.integers(0, c, size=n)
            loss, _ = identity_loss(np.stack([lv, lr]), y)
            assert abs(loss - oracles.identity_loss_oracle(lv, lr, y)) < 1e-10

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(5)
        _, (gv, gr) = identity_loss(rng.standard_normal((2, 3, 5)), [0, 4, 2])
        assert np.abs(gv.sum(axis=1)).max() < 1e-12
        assert np.abs(gr.sum(axis=1)).max() < 1e-12

    def test_label_out_of_range_raises_index_error(self):
        with pytest.raises(IndexError):
            identity_loss(np.zeros((2, 1, 3)), [3])

    def test_single_class_rejected(self):
        with pytest.raises(DimensionError):
            identity_loss(np.zeros((2, 1, 1)), [0])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        logits = rng.standard_normal((2, 5, 4))
        y = np.array([0, 1, 2, 3, 0])
        perm = rng.permutation(5)
        a, _ = identity_loss(logits, y)
        b, _ = identity_loss(logits[:, perm], y[perm])
        assert abs(a - b) < 1e-10


# ----------------------------------------------------- weighted triplet

class TestWeightedTriplet:
    def test_balanced_anchors_give_log_two(self):
        # scaled basis vectors: every pairwise distance is sqrt(2)*c, so each
        # anchor's weighted positive and negative sums cancel exactly
        c = 3.0
        stack = c * np.eye(4)
        labels = [0, 0, 1, 1]
        loss, _ = weighted_triplet_loss(stack, labels)
        assert abs(loss - LN2) < 1e-10

    def test_far_negatives_near_positives_vanish(self):
        stack = np.array([[0.0, 0.0], [0.0, 0.0], [1e3, 0.0], [1e3, 0.0]])
        loss, _ = weighted_triplet_loss(stack, [0, 0, 1, 1])
        assert loss < 1e-10

    def test_hand_placed_batch_matches_scalar_oracle(self):
        stack = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [1.5, 2.5]])
        labels = [0, 0, 1, 1]
        loss, _ = weighted_triplet_loss(stack, labels)
        assert abs(loss - oracles.weighted_triplet_oracle(stack, labels)) < 1e-10

    def test_matches_scalar_oracle_on_random_batches(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n_ids = int(rng.integers(2, 4))
            k = int(rng.integers(2, 4))
            labels = np.repeat(np.arange(n_ids), k)
            stack = rng.standard_normal((n_ids * k, 4))
            loss, _ = weighted_triplet_loss(stack, labels)
            assert abs(loss - oracles.weighted_triplet_oracle(stack, labels)) < 1e-10

    def test_anchor_without_positive_rejected_by_index(self):
        stack = np.random.default_rng(0).standard_normal((3, 2))
        with pytest.raises(ProtocolError, match="anchor 2"):
            weighted_triplet_loss(stack, [0, 0, 1])

    def test_anchor_without_negative_rejected(self):
        stack = np.random.default_rng(0).standard_normal((3, 2))
        with pytest.raises(ProtocolError, match="negative"):
            weighted_triplet_loss(stack, [0, 0, 0])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(13)
        stack = rng.standard_normal((6, 3))
        labels = np.array([0, 0, 1, 1, 2, 2])
        perm = rng.permutation(6)
        a, _ = weighted_triplet_loss(stack, labels)
        b, _ = weighted_triplet_loss(stack[perm], labels[perm])
        assert abs(a - b) < 1e-10

    def test_translation_invariance(self):
        rng = np.random.default_rng(14)
        stack = rng.standard_normal((4, 3))
        labels = [0, 0, 1, 1]
        a, _ = weighted_triplet_loss(stack, labels)
        b, _ = weighted_triplet_loss(stack + 7.5, labels)
        assert abs(a - b) < 1e-9

    # no N x N x d temporary: that alone is 1 MiB at the trained 64 x 32
    # stack and 64 MiB at 512 x 32
    @pytest.mark.parametrize("n_ids, bound_mib", [(8, 1), (64, 32)])
    def test_peak_memory_stays_below_a_difference_tensor(self, n_ids, bound_mib):
        rng = np.random.default_rng(15)
        labels = np.tile(np.repeat(np.arange(n_ids), 4), 2)
        stack = rng.standard_normal((len(labels), 32))
        tracemalloc.start()
        try:
            weighted_triplet_loss(stack, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20

    def test_expit_equals_scipy_to_the_bit(self):
        # the triplet gradient's logistic function must not move the
        # trajectory the package had when it called scipy.special.expit
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(16)
        sweep = np.concatenate([rng.standard_normal(20_000) * scale
                                for scale in (1e-300, 1e-8, 1.0, 10.0, 40.0, 800.0, 1e300)])
        edges = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
                          709.0, -709.0, 710.0, -710.0, 745.0, -745.0,
                          1e308, -1e308, np.inf, -np.inf])
        a = np.concatenate([sweep, edges])
        assert (_expit(a).view(np.int64) == special.expit(a).view(np.int64)).all()


# ------------------------------------------------------ pairwise contrastive

class TestContrastivePair:
    def test_single_row_is_exactly_zero(self):
        loss, gf, gt = contrastive_pair_loss([[1.0, 2.0]], [[0.5, -1.0]], tau=0.07)
        assert loss == 0.0
        assert np.abs(gf).max() < 1e-12
        assert np.abs(gt).max() < 1e-12

    def test_identical_rows_give_uniform_two_log_n(self):
        f = np.ones((5, 3))
        loss, _, _ = contrastive_pair_loss(f, f.copy(), tau=0.07)
        assert abs(loss - 2.0 * math.log(5.0)) < 1e-10

    def test_orthonormal_pair_hand_value(self):
        f = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, _, _ = contrastive_pair_loss(f, f.copy(), tau=1.0)
        assert abs(loss - 0.62652) < 1e-5
        assert abs(loss - 2.0 * math.log(1 + math.exp(-1.0))) < 1e-12

    def test_matches_scalar_oracle_on_random_batches(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            n, d = int(rng.integers(1, 6)), int(rng.integers(2, 5))
            f = rng.standard_normal((n, d))
            t = rng.standard_normal((n, d))
            loss, _, _ = contrastive_pair_loss(f, t, tau=0.07)
            assert abs(loss - oracles.pair_contrastive_oracle(f, t, 0.07)) < 1e-10

    def test_scale_invariance_of_rows(self):
        rng = np.random.default_rng(16)
        f = rng.standard_normal((3, 4))
        t = rng.standard_normal((3, 4))
        a, _, _ = contrastive_pair_loss(f, t, tau=0.07)
        b, _, _ = contrastive_pair_loss(2.5 * f, 0.3 * t, tau=0.07)
        assert abs(a - b) < 1e-10

    def test_zero_norm_row_names_the_row(self):
        f = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DegenerateInputError, match="row 1"):
            contrastive_pair_loss(f, np.ones((2, 2)), tau=0.07)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError):
            contrastive_pair_loss(np.ones((2, 2)), np.ones((2, 2)), tau=0.0)

    def test_label_aware_reduces_to_indexwise_for_distinct_labels(self):
        rng = np.random.default_rng(17)
        f = rng.standard_normal((4, 3))
        t = rng.standard_normal((4, 3))
        plain, _, _ = contrastive_pair_loss(f, t, tau=0.07)
        aware, _, _ = contrastive_pair_loss(f, t, tau=0.07, labels=[0, 1, 2, 3])
        assert abs(plain - aware) < 1e-12

    def test_label_aware_differs_with_duplicate_labels(self):
        rng = np.random.default_rng(18)
        f = rng.standard_normal((4, 3))
        t = rng.standard_normal((4, 3))
        plain, _, _ = contrastive_pair_loss(f, t, tau=0.07)
        aware, _, _ = contrastive_pair_loss(f, t, tau=0.07, labels=[0, 0, 1, 1])
        assert abs(plain - aware) > 1e-6

    @pytest.mark.parametrize("aware", [False, True])
    @pytest.mark.parametrize("n, d", [(1, 1), (2, 4), (8, 8), (9, 3), (33, 17), (64, 32),
                                      (128, 64)])
    def test_stacked_call_equals_separate_calls_to_the_bit(self, n, d, aware):
        rng = derive_rng(n, "stacked-contrast", d)
        f, t = rng.standard_normal((2, 3, n, d))
        labels = np.arange(n) % max(1, n // 3) if aware else None
        loss, g_f, g_t = contrastive_pair_loss(f, t, 0.07, labels)
        assert loss.shape == (3,)
        for p in range(3):
            want, want_f, want_t = contrastive_pair_loss(f[p].copy(), t[p].copy(), 0.07, labels)
            assert loss[p] == want
            assert np.array_equal(g_f[p], want_f)
            assert np.array_equal(g_t[p], want_t)
        value, no_f, no_t = contrastive_pair_loss(f, t, 0.07, labels, need_grad=False)
        assert np.array_equal(value, loss)
        assert no_f is None and no_t is None

    def test_stacked_zero_norm_row_names_the_row_of_its_problem(self):
        f = np.ones((2, 3, 2))
        f[1, 2] = 0.0
        with pytest.raises(DegenerateInputError, match="image side row 2"):
            contrastive_pair_loss(f, np.ones((2, 3, 2)), tau=0.07)


class TestContrastiveSingle:
    def test_single_row_is_zero(self):
        emb = random_embedding_set(1, 4, seed=0, n_labels=1)
        loss, _ = contrastive_single(emb, tau=0.07)
        assert loss == 0.0

    def test_identical_constant_blocks_give_four_log_n(self):
        block = np.ones((4, 3))
        emb = embedding_set(f_v=block, f_r=block.copy(), t_v=block.copy(),
                            t_r=block.copy(), labels=np.arange(4))
        loss, _ = contrastive_single(emb, tau=0.07)
        assert abs(loss - 4.0 * math.log(4.0)) < 1e-10

    def test_is_sum_of_two_pair_losses(self, emb_4x3):
        loss, _ = contrastive_single(emb_4x3, tau=0.07)
        l_v = oracles.pair_contrastive_oracle(emb_4x3.blocks[0], emb_4x3.blocks[2], 0.07)
        l_r = oracles.pair_contrastive_oracle(emb_4x3.blocks[1], emb_4x3.blocks[3], 0.07)
        assert abs(loss - (l_v + l_r)) < 1e-10


# ------------------------------------------------------------- view fusion

def partners(mix: np.ndarray, i: int, self_col: int) -> list[int]:
    """Stack columns row i of a mix matrix averages in besides its own."""
    return [int(c) for c in np.flatnonzero(mix[i]) if c != self_col]


class TestFuseMultiview:
    def test_zero_partners_is_identity(self, emb_4x3):
        fused = fuse_multiview(emb_4x3, n_fuse=0, rng_seed=0)
        assert np.array_equal(fused.blocks, emb_4x3.blocks)

    def test_self_partner_is_identity(self):
        # no row shares a label: every draw falls back to the row itself,
        # also with the other modality in the pool
        emb = random_embedding_set(2, 3, seed=2, n_labels=2)
        fused = fuse_multiview(emb, n_fuse=3, rng_seed=0, cross_modal=True)
        assert np.array_equal(fused.mix_v, np.hstack([np.eye(2), np.zeros((2, 2))]))
        assert np.array_equal(fused.mix_r, np.hstack([np.zeros((2, 2)), np.eye(2)]))
        assert np.allclose(fused.blocks[0], emb.blocks[0], atol=1e-12)
        assert np.allclose(fused.blocks[3], emb.blocks[3], atol=1e-12)

    def test_two_point_mean(self):
        emb = embedding_set(f_v=[[1.0, 0.0], [0.0, 1.0]],
                            f_r=[[1.0, 0.0], [0.0, 1.0]],
                            t_v=[[1.0, 0.0], [0.0, 1.0]],
                            t_r=[[1.0, 0.0], [0.0, 1.0]],
                            labels=[0, 0])
        fused = fuse_multiview(emb, n_fuse=1, rng_seed=0)
        assert np.allclose(fused.blocks[0], [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)

    def test_partner_choice_is_deterministic(self):
        # two candidates per row, one drawn: the seed decides which
        emb = random_embedding_set(6, 4, seed=3, n_labels=2)
        a = fuse_multiview(emb, n_fuse=1, rng_seed=9)
        b = fuse_multiview(emb, n_fuse=1, rng_seed=9)
        c = fuse_multiview(emb, n_fuse=1, rng_seed=10)
        assert np.array_equal(a.mix_v, b.mix_v)
        assert np.array_equal(a.mix_r, b.mix_r)
        assert np.array_equal(a.blocks[0], b.blocks[0])
        assert not np.array_equal(a.mix_v, c.mix_v)

    def test_image_and_text_share_sampled_partners(self):
        emb = random_embedding_set(6, 4, seed=4, n_labels=2)
        fused = fuse_multiview(emb, n_fuse=1, rng_seed=5)
        stack_f = np.vstack(emb.blocks[:2])
        stack_t = np.vstack(emb.blocks[2:])
        for i in range(emb.n):
            chosen = partners(fused.mix_v, i, i)
            assert len(chosen) == 1
            want_f = (emb.blocks[0][i] + stack_f[chosen].sum(axis=0)) / (1 + len(chosen))
            want_t = (emb.blocks[2][i] + stack_t[chosen].sum(axis=0)) / (1 + len(chosen))
            assert np.allclose(fused.blocks[0][i], want_f, atol=1e-12)
            assert np.allclose(fused.blocks[2][i], want_t, atol=1e-12)

    def test_cross_modal_pool_reaches_other_modality(self):
        emb = random_embedding_set(2, 3, seed=5, n_labels=1)
        seen_other = False
        for seed in range(20):
            fused = fuse_multiview(emb, n_fuse=1, rng_seed=seed, cross_modal=True)
            if any(c >= 2 for i in range(2) for c in partners(fused.mix_v, i, i)):
                seen_other = True
                break
        assert seen_other

    def test_partners_share_identity_and_exclude_self(self, tiny_bundle):
        # a PK batch as training draws it: 3 identities, 2 rows each
        batch = sample_batch(tiny_bundle.train, n_ids=3, k_per_modality=2, rng_seed=1)
        n = len(batch.labels)
        emb = replace(random_embedding_set(n, 3, seed=1), labels=batch.labels)
        for n_fuse in (1, 3):
            for cross_modal in (False, True):
                fused = fuse_multiview(emb, n_fuse=n_fuse, rng_seed=2,
                                       cross_modal=cross_modal)
                for mix, offset in ((fused.mix_v, 0), (fused.mix_r, n)):
                    assert np.allclose(mix.sum(axis=1), 1.0)
                    for i in range(n):
                        chosen = partners(mix, i, offset + i)
                        assert chosen, f"row {i} drew no partner"
                        for c in chosen:
                            assert c % n != i
                            assert batch.labels[c % n] == batch.labels[i]
                            if not cross_modal:
                                assert c // n == offset // n

    def test_empty_candidates_with_fallback_is_identity(self):
        emb = random_embedding_set(2, 3, seed=6, n_labels=2)
        fused = fuse_multiview(emb, n_fuse=1, rng_seed=0)
        assert np.allclose(fused.blocks[0], emb.blocks[0], atol=1e-12)

    def test_candidate_bookkeeping_errors(self):
        emb = random_embedding_set(2, 3, seed=6, n_labels=1)
        with pytest.raises(ValueError):
            fuse_multiview(emb, n_fuse=-1, rng_seed=0)


def fuse_multiview_per_row(emb: EmbeddingSet, n_fuse: int, rng_seed: int,
                           cross_modal: bool = False) -> FusedSet:
    """The per-row loop fuse_multiview replaced: a Python list per pool and
    one `rng.choice` per row and modality, each draw added to its mix cell
    with `+=`. Kept as the reference its mixes and fused views must equal."""
    n = emb.n
    labels = emb.labels.tolist()
    rows_of: dict[int, list[int]] = {}
    for j, y in enumerate(labels):
        rows_of.setdefault(y, []).append(j)

    rng = derive_rng(rng_seed, "fuse")
    w = 1.0 / (n_fuse + 1)
    mix_v = np.zeros((n, 2 * n))
    mix_r = np.zeros((n, 2 * n))
    for i, y in enumerate(labels):
        same = [j for j in rows_of[y] if j != i]
        for mix, offset in ((mix_v, 0), (mix_r, n)):
            self_idx = offset + i
            if cross_modal:
                pool = same + [j + n for j in same]
            else:
                pool = [j + offset for j in same]
            if pool:
                chosen = rng.choice(pool, size=n_fuse, replace=len(pool) < n_fuse)
            else:
                chosen = [self_idx] * n_fuse
            mix[i, self_idx] += w
            for c in chosen:
                mix[i, c] += w
    return FusedSet.from_mix(emb, mix_v, mix_r)


def assert_fusion_equals_per_row_loop(emb: EmbeddingSet, n_fuse: int, seed: int,
                                      cross_modal: bool) -> None:
    got = fuse_multiview(emb, n_fuse, seed, cross_modal=cross_modal)
    want = fuse_multiview_per_row(emb, n_fuse, seed, cross_modal=cross_modal)
    for name in ("mix_v", "mix_r", "blocks"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), \
            f"{name} differs at n_fuse={n_fuse}, seed={seed}, cross_modal={cross_modal}"


def with_labels(labels, d: int, seed: int) -> EmbeddingSet:
    labels = np.asarray(labels, dtype=np.int64)
    return replace(random_embedding_set(labels.size, d, seed=seed), labels=labels)


class TestFuseMultiviewReference:
    @pytest.mark.parametrize("n_ids,k", [(8, 4), (3, 2), (4, 1), (2, 3), (5, 3)])
    def test_equals_the_per_row_loop_on_pk_batches(self, n_ids, k):
        # label values with gaps; odd seeds shuffle the rows as well
        sorted_labels = np.repeat(3 * np.arange(n_ids) + 1, k)
        for seed in range(12):
            labels = sorted_labels
            if seed % 2:
                labels = derive_rng(seed, "fuse-reference").permutation(labels)
            emb = with_labels(labels, 3, seed)
            for n_fuse in range(4):
                for cross_modal in (False, True):
                    assert_fusion_equals_per_row_loop(emb, n_fuse, seed, cross_modal)

    @pytest.mark.parametrize("n", [2, 5])
    def test_equals_the_per_row_loop_on_gradcheck_labels(self, n):
        # n=2: every row fuses with itself; n=5: pools of one and two rows
        emb = with_labels(gradcheck._labels_for(n), 4, n)
        for seed in range(6):
            for n_fuse in range(4):
                for cross_modal in (False, True):
                    assert_fusion_equals_per_row_loop(emb, n_fuse, seed, cross_modal)

    def test_equals_the_per_row_loop_when_only_some_pools_cover_n_fuse(self):
        # pools of 3, 1 and 0 rows per identity (6, 2 and 0 with cross_modal):
        # a pool of at least n_fuse rows is drawn without replacement, so
        # every slot makes its own choice call, some of them with replacement
        emb = with_labels([0, 1, 0, 2, 0, 1, 0], 3, 8)
        for seed in range(20):
            for n_fuse in (2, 3):
                for cross_modal in (False, True):
                    assert_fusion_equals_per_row_loop(emb, n_fuse, seed, cross_modal)

    def test_cells_drawn_many_times_sum_like_the_loop(self):
        # at n_fuse=6 row 2 adds itself 7 times and rows 0 and 1 draw their
        # one partner 6 times; from 6 additions on, repeated += w differs
        # from count * w in the last bit
        emb = with_labels([0, 0, 1], 3, 9)
        for cross_modal in (False, True):
            assert_fusion_equals_per_row_loop(emb, 6, 0, cross_modal)


class TestBoundedDrawPremise:
    """fuse_multiview draws single bounded integers for many pools in one
    `Generator.integers` call. That gives the per-slot `choice` results only
    because numpy makes both with the same bounded-integer draw, in order.
    A numpy release that changes this fails here, not as a drifted run."""

    SIZES = np.array([1, 2, 3, 7, 1, 64, 5, 2, 1000, 1, 2**20])

    def test_choice_one_without_replacement_equals_one_integers_call(self):
        for seed in range(20):
            per_slot = np.random.default_rng(seed)
            want = [per_slot.choice(s, 1, replace=False)[0] for s in self.SIZES.tolist()]
            one_call = np.random.default_rng(seed)
            assert np.array_equal(one_call.integers(0, self.SIZES), want)
            assert one_call.bit_generator.state == per_slot.bit_generator.state

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_choice_with_replacement_equals_one_integers_call(self, n):
        for seed in range(20):
            per_slot = np.random.default_rng(seed)
            want = np.concatenate([per_slot.choice(s, n, replace=True)
                                   for s in self.SIZES.tolist()])
            one_call = np.random.default_rng(seed)
            assert np.array_equal(one_call.integers(0, np.repeat(self.SIZES, n)), want)
            assert one_call.bit_generator.state == per_slot.bit_generator.state


class TestContrastiveFused:
    def test_zero_partner_fusion_reproduces_single_view_loss(self, emb_4x3):
        fused = fuse_multiview(emb_4x3, n_fuse=0, rng_seed=0)
        l_fused, _ = contrastive_fused(fused, tau=0.07)
        l_single, _ = contrastive_single(emb_4x3, tau=0.07)
        assert l_fused == l_single

    def test_single_row_is_zero(self):
        emb = random_embedding_set(1, 4, seed=0, n_labels=1)
        fused = fuse_multiview(emb, n_fuse=0, rng_seed=0)
        loss, _ = contrastive_fused(fused, tau=0.07)
        assert loss == 0.0

    def test_paired_identity_matches_hand_averaged_oracle(self):
        emb = random_embedding_set(2, 3, seed=8, n_labels=1)
        fused = fuse_paired(emb)
        loss, _ = contrastive_fused(fused, tau=0.07)
        fm_v = (emb.blocks[0] + emb.blocks[0][[1, 0]]) / 2
        tm_v = (emb.blocks[2] + emb.blocks[2][[1, 0]]) / 2
        fm_r = (emb.blocks[1] + emb.blocks[1][[1, 0]]) / 2
        tm_r = (emb.blocks[3] + emb.blocks[3][[1, 0]]) / 2
        want = (oracles.pair_contrastive_oracle(fm_v, tm_v, 0.07)
                + oracles.pair_contrastive_oracle(fm_r, tm_r, 0.07))
        assert abs(loss - want) < 1e-10

    def test_gradients_flow_back_through_averaging(self):
        emb = random_embedding_set(2, 3, seed=9, n_labels=1)
        fused = fuse_paired(emb)
        _, grads = contrastive_fused(fused, tau=0.07)
        assert np.abs(grads[0]).max() > 0.0    # f_v
        assert np.abs(grads[3]).max() > 0.0    # t_r


# ------------------------------------------------------------ distillation

def make_fused(fm_v, fm_r, tm_v, tm_r) -> FusedSet:
    n = np.asarray(fm_v).shape[0]
    dummy = np.zeros((n, 2 * n))
    return FusedSet(np.stack([np.asarray(b, float) for b in (fm_v, fm_r, tm_v, tm_r)]),
                    mix_v=dummy, mix_r=dummy)


class TestDistill:
    def test_fused_equal_source_gives_zero(self, emb_4x3):
        fused = fuse_multiview(emb_4x3, n_fuse=0, rng_seed=0)
        loss, grads = distill_loss(emb_4x3, fused)
        assert loss == 0.0
        assert np.abs(grads[0]).max() == 0.0

    def test_single_block_unit_offset_gives_dimension(self):
        emb = embedding_set(f_v=np.zeros((1, 4)), f_r=np.zeros((1, 4)),
                            t_v=np.zeros((1, 4)), t_r=np.zeros((1, 4)), labels=[0])
        fused = make_fused(np.ones((1, 4)), np.zeros((1, 4)),
                           np.zeros((1, 4)), np.zeros((1, 4)))
        loss, _ = distill_loss(emb, fused)
        assert abs(loss - 4.0) < 1e-12

    def test_matches_scalar_oracle(self):
        emb = random_embedding_set(2, 3, seed=10, n_labels=1)
        rng = np.random.default_rng(0)
        blocks = [rng.standard_normal((2, 3)) for _ in range(4)]
        fused = make_fused(*blocks)
        loss, _ = distill_loss(emb, fused)
        want = oracles.kd_oracle(*emb.blocks, *blocks)
        assert abs(loss - want) < 1e-10

    def test_nonnegative_and_zero_iff_equal(self):
        emb = random_embedding_set(3, 4, seed=11, n_labels=1)
        fused = make_fused(*emb.blocks)
        loss, _ = distill_loss(emb, fused)
        assert loss == 0.0
        nudged = make_fused(emb.blocks[0] + 1e-5, *emb.blocks[1:])
        loss2, _ = distill_loss(emb, nudged)
        assert loss2 > 0.0

    def test_text_terms_removable(self):
        emb = random_embedding_set(2, 3, seed=12, n_labels=1)
        rng = np.random.default_rng(1)
        blocks = [rng.standard_normal((2, 3)) for _ in range(4)]
        fused = make_fused(*blocks)
        loss_all, grads_all = distill_loss(emb, fused, include_text=True)
        loss_img, grads_img = distill_loss(emb, fused, include_text=False)
        want_img = oracles.kd_oracle(emb.blocks[0], emb.blocks[1], blocks[2], blocks[3],
                                     blocks[0], blocks[1], blocks[2], blocks[3])
        assert abs(loss_img - want_img) < 1e-10
        assert loss_all > loss_img
        assert np.abs(grads_img[2]).max() == 0.0   # t_v
        assert np.abs(grads_all[2]).max() > 0.0

    def test_row_count_mismatch_rejected(self):
        emb = random_embedding_set(2, 3, seed=13, n_labels=1)
        fused = make_fused(*(np.zeros((3, 3)) for _ in range(4)))
        with pytest.raises(DimensionError):
            distill_loss(emb, fused)


# ---------------------------------------------------------- distance parity

class TestDistanceParity:
    def test_equal_texts_give_zero(self):
        rng = np.random.default_rng(20)
        t = rng.standard_normal((3, 4))
        emb = embedding_set(f_v=rng.standard_normal((3, 4)),
                            f_r=rng.standard_normal((3, 4)),
                            t_v=t, t_r=t.copy(), labels=np.arange(3))
        loss, _ = distance_parity_loss(emb)
        assert loss == 0.0

    def test_one_dimensional_hand_value(self):
        emb = embedding_set(f_v=[[0.0]], t_v=[[1.0]], f_r=[[2.0]], t_r=[[3.0]],
                            labels=[0])
        loss, _ = distance_parity_loss(emb)
        assert abs(loss - 4.0) < 1e-5
        assert loss == 4.0

    def test_matches_scalar_oracle(self):
        emb = random_embedding_set(4, 3, seed=21, n_labels=2)
        loss, _ = distance_parity_loss(emb)
        want = oracles.parity_oracle(*emb.blocks)
        assert abs(loss - want) < 1e-10

    def test_modality_swap_invariance(self):
        emb = random_embedding_set(4, 3, seed=22, n_labels=2)
        swapped = EmbeddingSet(emb.blocks[[1, 0, 3, 2]], emb.labels)
        a, _ = distance_parity_loss(emb)
        b, _ = distance_parity_loss(swapped)
        assert abs(a - b) < 1e-12

    @pytest.mark.parametrize("alpha", [2.0, 1.7, 0.25])
    def test_quadratic_homogeneity(self, alpha):
        emb = random_embedding_set(3, 4, seed=23, n_labels=1)
        scaled = EmbeddingSet(alpha * emb.blocks, emb.labels)
        a, _ = distance_parity_loss(emb)
        b, _ = distance_parity_loss(scaled)
        assert abs(b - alpha * alpha * a) < 1e-10 * max(1.0, abs(b))

    def test_zero_distance_rows_get_zero_subgradient(self):
        x = np.array([[1.0, 2.0]])
        emb = embedding_set(f_v=x, f_r=x.copy(), t_v=x.copy(), t_r=x.copy(),
                            labels=[0])
        loss, grads = distance_parity_loss(emb)
        assert loss == 0.0
        for block in grads:
            assert np.abs(block).max() == 0.0


# ------------------------------------------------------------- total loss

def paired_embedding_set(n_pairs: int, d: int, seed: int) -> EmbeddingSet:
    emb = random_embedding_set(2 * n_pairs, d, seed, n_labels=n_pairs)
    labels = np.repeat(np.arange(n_pairs), 2)
    return EmbeddingSet(emb.blocks, labels)


class TestTotalLoss:
    def _logits(self, n, c, seed):
        return np.random.default_rng(seed).standard_normal((2, n, c))

    def test_zero_weights_reduce_to_identity_term(self):
        emb = paired_embedding_set(2, 3, seed=30)
        logits = self._logits(4, 2, 0)
        w = LossWeights(lambda1=0, lambda2=0, lambda3=0, lambda4=0)
        res = total_loss(emb, None, logits, w)
        id_only, _ = identity_loss(logits, emb.labels)
        assert res.breakdown.total == id_only
        assert res.breakdown.triplet == 0.0
        assert np.abs(res.grads[0]).max() == 0.0

    def test_breakdown_fields_match_component_calls_bitwise(self):
        emb = paired_embedding_set(2, 3, seed=31)
        logits = self._logits(4, 2, 1)
        fused = fuse_paired(emb)
        w = LossWeights()
        res = total_loss(emb, fused, logits, w)

        l_id, _ = identity_loss(logits, emb.labels)
        stack = np.vstack(emb.blocks[:2])
        l_wrt, _ = weighted_triplet_loss(stack, np.concatenate([emb.labels] * 2))
        l_single, _ = contrastive_single(emb, w.tau)
        l_fused, _ = contrastive_fused(fused, w.tau)
        l_kd, _ = distill_loss(emb, fused)
        l_par, _ = distance_parity_loss(emb)

        assert res.breakdown.identity == l_id
        assert res.breakdown.triplet == l_wrt
        assert res.breakdown.contrast_single == l_single
        assert res.breakdown.contrast_fused == l_fused
        assert res.breakdown.distill == l_kd
        assert res.breakdown.parity == l_par

    def test_recomposition_identity(self):
        emb = paired_embedding_set(3, 4, seed=32)
        logits = self._logits(6, 3, 2)
        fused = fuse_paired(emb)
        w = LossWeights()
        res = total_loss(emb, fused, logits, w)
        b = res.breakdown
        recomposed = (b.identity + w.lambda1 * b.triplet
                      + w.lambda2 * (b.contrast_single + b.contrast_fused)
                      + w.lambda3 * b.distill + w.lambda4 * b.parity)
        assert abs(b.total - recomposed) < 1e-10

    def test_missing_fused_views_rejected_when_needed(self):
        emb = paired_embedding_set(2, 3, seed=33)
        logits = self._logits(4, 2, 3)
        with pytest.raises(ProtocolError):
            total_loss(emb, None, logits, LossWeights(lambda3=0))
        with pytest.raises(ProtocolError):
            total_loss(emb, None, logits, LossWeights(lambda2=0))

    def test_gradient_is_weighted_sum_of_component_gradients(self):
        emb = paired_embedding_set(2, 3, seed=34)
        logits = self._logits(4, 2, 4)
        fused = fuse_paired(emb)
        w = LossWeights()
        res = total_loss(emb, fused, logits, w)

        stack = np.vstack(emb.blocks[:2])
        _, g_stack = weighted_triplet_loss(stack, np.concatenate([emb.labels] * 2))
        _, g_single = contrastive_single(emb, w.tau)
        _, g_fused = contrastive_fused(fused, w.tau)
        _, g_kd = distill_loss(emb, fused)
        _, g_par = distance_parity_loss(emb)
        # block 0 is f_v, block 2 t_v
        want_fv = (w.lambda1 * g_stack[:emb.n]
                   + w.lambda2 * (g_single[0] + g_fused[0])
                   + w.lambda3 * g_kd[0] + w.lambda4 * g_par[0])
        want_tv = (w.lambda2 * (g_single[2] + g_fused[2])
                   + w.lambda3 * g_kd[2] + w.lambda4 * g_par[2])
        assert np.abs(res.grads[0] - want_fv).max() < 1e-12
        assert np.abs(res.grads[2] - want_tv).max() < 1e-12

    def test_permutation_equivariance_of_scalar(self):
        emb = paired_embedding_set(3, 4, seed=35)
        logits = self._logits(6, 3, 5)
        fused = fuse_paired(emb)
        w = LossWeights()
        base = total_loss(emb, fused, logits, w).breakdown.total

        perm = np.random.default_rng(6).permutation(6)
        p_emb = EmbeddingSet(emb.blocks[:, perm], emb.labels[perm])
        p_fused = fuse_paired(p_emb)
        permuted = total_loss(p_emb, p_fused, logits[:, perm], w).breakdown.total
        assert abs(base - permuted) < 1e-10

    def test_weight_validation_errors(self):
        for bad in ({"lambda1": -0.1}, {"tau": 0.0}, {"n_fuse": -1}, {"n_fuse": 1.5}):
            with pytest.raises(ValueError):
                LossWeights(**bad)

    def test_weights_with_replaces_fields(self):
        w = replace(LossWeights(), lambda2=0.0, n_fuse=3)
        assert w.lambda2 == 0.0
        assert w.n_fuse == 3
        assert w.lambda1 == LossWeights().lambda1


# --------------------------------------------------- property-based checks

@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_parity_loss_nonnegative_on_random_batches(seed):
    emb = random_embedding_set(3, 4, seed=seed, n_labels=1)
    loss, _ = distance_parity_loss(emb)
    assert loss >= 0.0


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_contrastive_loss_nonnegative_floor(seed):
    # each directional term is a -log softmax probability, hence >= 0
    emb = random_embedding_set(4, 3, seed=seed, n_labels=2)
    loss, _ = contrastive_single(emb, tau=0.07)
    assert loss >= -1e-12


@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=2, max_value=4))
@settings(max_examples=30, deadline=None)
def test_triplet_permutation_invariance_property(seed, n_ids):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(n_ids), 2)
    stack = rng.standard_normal((2 * n_ids, 3))
    perm = rng.permutation(len(labels))
    a, _ = weighted_triplet_loss(stack, labels)
    b, _ = weighted_triplet_loss(stack[perm], labels[perm])
    assert abs(a - b) < 1e-10
