"""Objective suite: hand-computed values, analytic zero/identity cases,
structural invariants, and agreement with independent scalar oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_embedding_set
from xmml.losses import (EmbeddingSet, FusedSet, LossWeights,
                         contrastive_fused, contrastive_pair_loss,
                         contrastive_single, distance_parity_loss,
                         distill_loss, fuse_multiview, identity_loss,
                         total_loss, weighted_triplet_loss, weights_with)
from xmml.numerics import (DegenerateInputError, DimensionError, ProtocolError)

LN2 = math.log(2.0)


def fuse_all_candidates(emb: EmbeddingSet, seed: int = 0) -> FusedSet:
    """Fusion with singleton candidate lists: deterministic regardless of rng."""
    n = emb.n
    labels = emb.labels
    candidates = [[j for j in range(n) if j != i and labels[j] == labels[i]]
                  for i in range(n)]
    assert all(len(c) == 1 for c in candidates), "fixture wants paired identities"
    return fuse_multiview(emb, candidates, n_fuse=1, rng_seed=seed)


# ----------------------------------------------------------- identity loss

class TestIdentityLoss:
    def test_uniform_logits_give_twice_log_n_classes(self):
        loss, _, _ = identity_loss(np.zeros((1, 4)), np.zeros((1, 4)), [0])
        assert abs(loss - 2.0 * math.log(4.0)) < 1e-10

    def test_saturated_correct_prediction_vanishes(self):
        logits = np.zeros((1, 4))
        logits[0, 2] = 50.0
        loss, _, _ = identity_loss(logits, logits, [2])
        assert loss < 1e-10

    def test_two_class_hand_value(self):
        loss, _, _ = identity_loss([[1.0, 0.0]], [[0.0, 1.0]], [0])
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
            loss, _, _ = identity_loss(lv, lr, y)
            assert abs(loss - oracles.identity_loss_oracle(lv, lr, y)) < 1e-10

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(5)
        lv, lr = rng.standard_normal((2, 3, 5))
        _, gv, gr = identity_loss(lv, lr, [0, 4, 2])
        assert np.abs(gv.sum(axis=1)).max() < 1e-12
        assert np.abs(gr.sum(axis=1)).max() < 1e-12

    def test_label_out_of_range_raises_index_error(self):
        with pytest.raises(IndexError):
            identity_loss(np.zeros((1, 3)), np.zeros((1, 3)), [3])

    def test_single_class_rejected(self):
        with pytest.raises(DimensionError):
            identity_loss(np.zeros((1, 1)), np.zeros((1, 1)), [0])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        lv, lr = rng.standard_normal((2, 5, 4))
        y = np.array([0, 1, 2, 3, 0])
        perm = rng.permutation(5)
        a, _, _ = identity_loss(lv, lr, y)
        b, _, _ = identity_loss(lv[perm], lr[perm], y[perm])
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


class TestContrastiveSingle:
    def test_single_row_is_zero(self):
        emb = random_embedding_set(1, 4, seed=0, n_labels=1)
        loss, _ = contrastive_single(emb, tau=0.07)
        assert loss == 0.0

    def test_identical_constant_blocks_give_four_log_n(self):
        block = np.ones((4, 3))
        emb = EmbeddingSet(f_v=block, f_r=block.copy(), t_v=block.copy(),
                           t_r=block.copy(), labels=np.arange(4))
        loss, _ = contrastive_single(emb, tau=0.07)
        assert abs(loss - 4.0 * math.log(4.0)) < 1e-10

    def test_is_sum_of_two_pair_losses(self, emb_4x3):
        loss, _ = contrastive_single(emb_4x3, tau=0.07)
        l_v = oracles.pair_contrastive_oracle(emb_4x3.f_v, emb_4x3.t_v, 0.07)
        l_r = oracles.pair_contrastive_oracle(emb_4x3.f_r, emb_4x3.t_r, 0.07)
        assert abs(loss - (l_v + l_r)) < 1e-10


# ------------------------------------------------------------- view fusion

class TestFuseMultiview:
    def test_zero_partners_is_identity(self, emb_4x3):
        fused = fuse_multiview(emb_4x3, [[] for _ in range(4)], n_fuse=0, rng_seed=0)
        assert np.array_equal(fused.fm_v, emb_4x3.f_v)
        assert np.array_equal(fused.fm_r, emb_4x3.f_r)
        assert np.array_equal(fused.tm_v, emb_4x3.t_v)
        assert np.array_equal(fused.tm_r, emb_4x3.t_r)

    def test_self_partner_is_identity(self):
        emb = random_embedding_set(2, 3, seed=2, n_labels=1)
        fused = fuse_multiview(emb, [[0], [1]], n_fuse=1, rng_seed=0)
        assert np.allclose(fused.fm_v, emb.f_v, atol=1e-12)
        assert np.allclose(fused.tm_r, emb.t_r, atol=1e-12)

    def test_two_point_mean(self):
        emb = EmbeddingSet(f_v=[[1.0, 0.0], [0.0, 1.0]],
                           f_r=[[1.0, 0.0], [0.0, 1.0]],
                           t_v=[[1.0, 0.0], [0.0, 1.0]],
                           t_r=[[1.0, 0.0], [0.0, 1.0]],
                           labels=[0, 0])
        fused = fuse_multiview(emb, [[1], [0]], n_fuse=1, rng_seed=0)
        assert np.allclose(fused.fm_v, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)

    def test_partner_choice_is_deterministic(self):
        emb = random_embedding_set(6, 4, seed=3, n_labels=2)
        cands = [[j for j in range(6) if j != i and j % 2 == i % 2]
                 for i in range(6)]
        a = fuse_multiview(emb, cands, n_fuse=2, rng_seed=9)
        b = fuse_multiview(emb, cands, n_fuse=2, rng_seed=9)
        c = fuse_multiview(emb, cands, n_fuse=2, rng_seed=10)
        assert a.partners_v == b.partners_v
        assert np.array_equal(a.fm_v, b.fm_v)
        assert a.partners_v != c.partners_v

    def test_image_and_text_share_sampled_partners(self):
        emb = random_embedding_set(6, 4, seed=4, n_labels=2)
        cands = [[j for j in range(6) if j != i and j % 2 == i % 2]
                 for i in range(6)]
        fused = fuse_multiview(emb, cands, n_fuse=1, rng_seed=5)
        stack_f = np.vstack([emb.f_v, emb.f_r])
        stack_t = np.vstack([emb.t_v, emb.t_r])
        for i, chosen in enumerate(fused.partners_v):
            want_f = (emb.f_v[i] + stack_f[chosen].sum(axis=0)) / (1 + len(chosen))
            want_t = (emb.t_v[i] + stack_t[chosen].sum(axis=0)) / (1 + len(chosen))
            assert np.allclose(fused.fm_v[i], want_f, atol=1e-12)
            assert np.allclose(fused.tm_v[i], want_t, atol=1e-12)

    def test_cross_modal_pool_reaches_other_modality(self):
        emb = random_embedding_set(2, 3, seed=5, n_labels=1)
        seen_other = False
        for seed in range(20):
            fused = fuse_multiview(emb, [[1], [0]], n_fuse=1, rng_seed=seed,
                                   cross_modal=True)
            if any(c >= 2 for chosen in fused.partners_v for c in chosen):
                seen_other = True
                break
        assert seen_other

    def test_empty_candidates_with_fallback_is_identity(self):
        emb = random_embedding_set(2, 3, seed=6, n_labels=2)
        fused = fuse_multiview(emb, [[], []], n_fuse=1, rng_seed=0)
        assert np.allclose(fused.fm_v, emb.f_v, atol=1e-12)

    def test_candidate_bookkeeping_errors(self):
        emb = random_embedding_set(2, 3, seed=6, n_labels=1)
        with pytest.raises(DimensionError):
            fuse_multiview(emb, [[1]], n_fuse=1, rng_seed=0)
        with pytest.raises(IndexError):
            fuse_multiview(emb, [[5], [0]], n_fuse=1, rng_seed=0)
        with pytest.raises(ValueError):
            fuse_multiview(emb, [[1], [0]], n_fuse=-1, rng_seed=0)


class TestContrastiveFused:
    def test_zero_partner_fusion_reproduces_single_view_loss(self, emb_4x3):
        fused = fuse_multiview(emb_4x3, [[] for _ in range(4)], n_fuse=0, rng_seed=0)
        l_fused, _ = contrastive_fused(fused, tau=0.07)
        l_single, _ = contrastive_single(emb_4x3, tau=0.07)
        assert l_fused == l_single

    def test_single_row_is_zero(self):
        emb = random_embedding_set(1, 4, seed=0, n_labels=1)
        fused = fuse_multiview(emb, [[]], n_fuse=0, rng_seed=0)
        loss, _ = contrastive_fused(fused, tau=0.07)
        assert loss == 0.0

    def test_paired_identity_matches_hand_averaged_oracle(self):
        emb = random_embedding_set(2, 3, seed=8, n_labels=1)
        fused = fuse_all_candidates(emb)
        loss, _ = contrastive_fused(fused, tau=0.07)
        fm_v = (emb.f_v + emb.f_v[[1, 0]]) / 2
        tm_v = (emb.t_v + emb.t_v[[1, 0]]) / 2
        fm_r = (emb.f_r + emb.f_r[[1, 0]]) / 2
        tm_r = (emb.t_r + emb.t_r[[1, 0]]) / 2
        want = (oracles.pair_contrastive_oracle(fm_v, tm_v, 0.07)
                + oracles.pair_contrastive_oracle(fm_r, tm_r, 0.07))
        assert abs(loss - want) < 1e-10

    def test_gradients_flow_back_through_averaging(self):
        emb = random_embedding_set(2, 3, seed=9, n_labels=1)
        fused = fuse_all_candidates(emb)
        _, grads = contrastive_fused(fused, tau=0.07)
        assert np.abs(grads.f_v).max() > 0.0
        assert np.abs(grads.t_r).max() > 0.0


# ------------------------------------------------------------ distillation

def make_fused(fm_v, fm_r, tm_v, tm_r, n_fuse=1) -> FusedSet:
    n = np.asarray(fm_v).shape[0]
    dummy = np.zeros((n, 2 * n))
    return FusedSet(fm_v=np.asarray(fm_v, float), fm_r=np.asarray(fm_r, float),
                    tm_v=np.asarray(tm_v, float), tm_r=np.asarray(tm_r, float),
                    n_fuse=n_fuse, mix_v=dummy, mix_r=dummy)


class TestDistill:
    def test_fused_equal_source_gives_zero(self, emb_4x3):
        fused = fuse_multiview(emb_4x3, [[] for _ in range(4)], n_fuse=0, rng_seed=0)
        loss, grads = distill_loss(emb_4x3, fused)
        assert loss == 0.0
        assert np.abs(grads.f_v).max() == 0.0

    def test_single_block_unit_offset_gives_dimension(self):
        emb = EmbeddingSet(f_v=np.zeros((1, 4)), f_r=np.zeros((1, 4)),
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
        want = oracles.kd_oracle(emb.f_v, emb.f_r, emb.t_v, emb.t_r, *blocks)
        assert abs(loss - want) < 1e-10

    def test_nonnegative_and_zero_iff_equal(self):
        emb = random_embedding_set(3, 4, seed=11, n_labels=1)
        fused = make_fused(emb.f_v, emb.f_r, emb.t_v, emb.t_r)
        loss, _ = distill_loss(emb, fused)
        assert loss == 0.0
        nudged = make_fused(emb.f_v + 1e-5, emb.f_r, emb.t_v, emb.t_r)
        loss2, _ = distill_loss(emb, nudged)
        assert loss2 > 0.0

    def test_text_terms_removable(self):
        emb = random_embedding_set(2, 3, seed=12, n_labels=1)
        rng = np.random.default_rng(1)
        blocks = [rng.standard_normal((2, 3)) for _ in range(4)]
        fused = make_fused(*blocks)
        loss_all, grads_all = distill_loss(emb, fused, include_text=True)
        loss_img, grads_img = distill_loss(emb, fused, include_text=False)
        want_img = oracles.kd_oracle(emb.f_v, emb.f_r, blocks[2], blocks[3],
                                     blocks[0], blocks[1], blocks[2], blocks[3])
        assert abs(loss_img - want_img) < 1e-10
        assert loss_all > loss_img
        assert np.abs(grads_img.t_v).max() == 0.0
        assert np.abs(grads_all.t_v).max() > 0.0

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
        emb = EmbeddingSet(f_v=rng.standard_normal((3, 4)),
                           f_r=rng.standard_normal((3, 4)),
                           t_v=t, t_r=t.copy(), labels=np.arange(3))
        loss, _ = distance_parity_loss(emb)
        assert loss == 0.0

    def test_one_dimensional_hand_value(self):
        emb = EmbeddingSet(f_v=[[0.0]], t_v=[[1.0]], f_r=[[2.0]], t_r=[[3.0]],
                           labels=[0])
        loss, _ = distance_parity_loss(emb)
        assert abs(loss - 4.0) < 1e-5
        assert loss == 4.0

    def test_matches_scalar_oracle(self):
        emb = random_embedding_set(4, 3, seed=21, n_labels=2)
        loss, _ = distance_parity_loss(emb)
        want = oracles.parity_oracle(emb.f_v, emb.f_r, emb.t_v, emb.t_r)
        assert abs(loss - want) < 1e-10

    def test_modality_swap_invariance(self):
        emb = random_embedding_set(4, 3, seed=22, n_labels=2)
        swapped = EmbeddingSet(f_v=emb.f_r, f_r=emb.f_v, t_v=emb.t_r,
                               t_r=emb.t_v, labels=emb.labels)
        a, _ = distance_parity_loss(emb)
        b, _ = distance_parity_loss(swapped)
        assert abs(a - b) < 1e-12

    @pytest.mark.parametrize("alpha", [2.0, 1.7, 0.25])
    def test_quadratic_homogeneity(self, alpha):
        emb = random_embedding_set(3, 4, seed=23, n_labels=1)
        scaled = EmbeddingSet(f_v=alpha * emb.f_v, f_r=alpha * emb.f_r,
                              t_v=alpha * emb.t_v, t_r=alpha * emb.t_r,
                              labels=emb.labels)
        a, _ = distance_parity_loss(emb)
        b, _ = distance_parity_loss(scaled)
        assert abs(b - alpha * alpha * a) < 1e-10 * max(1.0, abs(b))

    def test_zero_distance_rows_get_zero_subgradient(self):
        x = np.array([[1.0, 2.0]])
        emb = EmbeddingSet(f_v=x, f_r=x.copy(), t_v=x.copy(), t_r=x.copy(),
                           labels=[0])
        loss, grads = distance_parity_loss(emb)
        assert loss == 0.0
        for block in (grads.f_v, grads.f_r, grads.t_v, grads.t_r):
            assert np.abs(block).max() == 0.0


# ------------------------------------------------------------- total loss

def paired_embedding_set(n_pairs: int, d: int, seed: int) -> EmbeddingSet:
    emb = random_embedding_set(2 * n_pairs, d, seed, n_labels=n_pairs)
    labels = np.repeat(np.arange(n_pairs), 2)
    return EmbeddingSet(f_v=emb.f_v, f_r=emb.f_r, t_v=emb.t_v, t_r=emb.t_r,
                        labels=labels)


class TestTotalLoss:
    def _logits(self, n, c, seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((n, c)), rng.standard_normal((n, c))

    def test_zero_weights_reduce_to_identity_term(self):
        emb = paired_embedding_set(2, 3, seed=30)
        lv, lr = self._logits(4, 2, 0)
        w = LossWeights(lambda1=0, lambda2=0, lambda3=0, lambda4=0)
        res = total_loss(emb, None, lv, lr, w)
        id_only, _, _ = identity_loss(lv, lr, emb.labels)
        assert res.breakdown.total == id_only
        assert res.breakdown.triplet == 0.0
        assert np.abs(res.grads.f_v).max() == 0.0

    def test_breakdown_fields_match_component_calls_bitwise(self):
        emb = paired_embedding_set(2, 3, seed=31)
        lv, lr = self._logits(4, 2, 1)
        fused = fuse_all_candidates(emb)
        w = LossWeights()
        res = total_loss(emb, fused, lv, lr, w)

        l_id, _, _ = identity_loss(lv, lr, emb.labels)
        stack = np.vstack([emb.f_v, emb.f_r])
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
        lv, lr = self._logits(6, 3, 2)
        fused = fuse_all_candidates(emb)
        w = LossWeights()
        res = total_loss(emb, fused, lv, lr, w)
        b = res.breakdown
        recomposed = (b.identity + w.lambda1 * b.triplet
                      + w.lambda2 * (b.contrast_single + b.contrast_fused)
                      + w.lambda3 * b.distill + w.lambda4 * b.parity)
        assert abs(b.total - recomposed) < 1e-10

    def test_missing_fused_views_rejected_when_needed(self):
        emb = paired_embedding_set(2, 3, seed=33)
        lv, lr = self._logits(4, 2, 3)
        with pytest.raises(ProtocolError):
            total_loss(emb, None, lv, lr, LossWeights(lambda3=0))
        with pytest.raises(ProtocolError):
            total_loss(emb, None, lv, lr, LossWeights(lambda2=0))

    def test_gradient_is_weighted_sum_of_component_gradients(self):
        emb = paired_embedding_set(2, 3, seed=34)
        lv, lr = self._logits(4, 2, 4)
        fused = fuse_all_candidates(emb)
        w = LossWeights()
        res = total_loss(emb, fused, lv, lr, w)

        stack = np.vstack([emb.f_v, emb.f_r])
        _, g_stack = weighted_triplet_loss(stack, np.concatenate([emb.labels] * 2))
        _, g_single = contrastive_single(emb, w.tau)
        _, g_fused = contrastive_fused(fused, w.tau)
        _, g_kd = distill_loss(emb, fused)
        _, g_par = distance_parity_loss(emb)
        want_fv = (w.lambda1 * g_stack[:emb.n]
                   + w.lambda2 * (g_single.f_v + g_fused.f_v)
                   + w.lambda3 * g_kd.f_v + w.lambda4 * g_par.f_v)
        want_tv = (w.lambda2 * (g_single.t_v + g_fused.t_v)
                   + w.lambda3 * g_kd.t_v + w.lambda4 * g_par.t_v)
        assert np.abs(res.grads.f_v - want_fv).max() < 1e-12
        assert np.abs(res.grads.t_v - want_tv).max() < 1e-12

    def test_permutation_equivariance_of_scalar(self):
        emb = paired_embedding_set(3, 4, seed=35)
        lv, lr = self._logits(6, 3, 5)
        fused = fuse_all_candidates(emb)
        w = LossWeights()
        base = total_loss(emb, fused, lv, lr, w).breakdown.total

        perm = np.random.default_rng(6).permutation(6)
        p_emb = EmbeddingSet(f_v=emb.f_v[perm], f_r=emb.f_r[perm],
                             t_v=emb.t_v[perm], t_r=emb.t_r[perm],
                             labels=emb.labels[perm])
        p_fused = fuse_all_candidates(p_emb)
        permuted = total_loss(p_emb, p_fused, lv[perm], lr[perm], w).breakdown.total
        assert abs(base - permuted) < 1e-10

    def test_weight_validation_errors(self):
        for bad in (LossWeights(lambda1=-0.1), LossWeights(tau=0.0),
                    LossWeights(n_fuse=-1), LossWeights(n_fuse=1.5)):
            with pytest.raises(ValueError):
                bad.validate()

    def test_weights_with_replaces_fields(self):
        w = weights_with(LossWeights(), lambda2=0.0, n_fuse=3)
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
