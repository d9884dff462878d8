"""Retrieval metrics against a brute-force oracle, the deterministic tie
rule, gallery protocols, and the modality-gap / conflict-sensitivity
diagnostics with analytically constructed encoders."""

from __future__ import annotations

import numpy as np
import pytest

import oracles
from xmml import model
from xmml.evaluator import (Protocol, RetrievalReport, cmc_map,
                            conflict_sensitivity, embed_split, evaluate,
                            modality_gap)
from xmml.model import EncoderConfig, init_params
from xmml.numerics import ProtocolError, derive_rng
from xmml.synthdata import Sample, Split


# ------------------------------------------------------- constructed stores

def identity_map_store(d: int) -> "ParamStore":
    """Encoder computing f(x) = x exactly for both modalities.

    The two-layer trick [x; -x] -> relu -> subtract works for any sign
    pattern, so the whole network is the identity on raw features.
    """
    cfg = EncoderConfig(d_in_visual=d, d_in_text=d, n_classes=2,
                        d_hidden=2 * d, d_embed=d, seed=0)
    store = init_params(cfg)
    split_map = np.vstack([np.eye(d), -np.eye(d)])
    merge_map = np.hstack([np.eye(d), -np.eye(d)])
    for stem in ("stem_v", "stem_r"):
        store.value(f"{stem}.w")[...] = split_map
        store.value(f"{stem}.b")[...] = 0.0
    store.value("trunk1.w")[...] = np.eye(2 * d)
    store.value("trunk1.b")[...] = 0.0
    store.value("trunk2.w")[...] = merge_map
    store.value("trunk2.b")[...] = 0.0
    return store


def linear_store(g_v: np.ndarray, g_r: np.ndarray) -> "ParamStore":
    """Encoder computing f_m(x) = G_m x exactly (per-modality linear maps)."""
    d_out, d_in = g_v.shape
    cfg = EncoderConfig(d_in_visual=d_in, d_in_text=d_in, n_classes=2,
                        d_hidden=2 * d_out, d_embed=d_out, seed=0)
    store = init_params(cfg)
    for stem, g in (("stem_v", g_v), ("stem_r", g_r)):
        store.value(f"{stem}.w")[...] = np.vstack([g, -g])
        store.value(f"{stem}.b")[...] = 0.0
    store.value("trunk1.w")[...] = np.eye(2 * d_out)
    store.value("trunk1.b")[...] = 0.0
    store.value("trunk2.w")[...] = np.hstack([np.eye(d_out), -np.eye(d_out)])
    store.value("trunk2.b")[...] = 0.0
    return store


def make_split(rows) -> Split:
    """rows: (sample_id, identity, modality, x_raw) tuples."""
    samples = [Sample(sample_id=sid, identity=y, modality=m, view=0,
                      x_raw=np.asarray(x, float),
                      l_raw=np.zeros(len(x)))
               for sid, y, m, x in rows]
    return Split(samples)


# --------------------------------------------------------- ranking metrics

class TestRankingOracle:
    def test_equals_bruteforce_on_random_instances(self):
        rng = derive_rng(0, "oracle-instances")
        for trial in range(100):
            n_q = int(rng.integers(1, 11))
            n_g = int(rng.integers(2, 21))
            sim = rng.standard_normal((n_q, n_g))
            if trial % 2 == 0:
                sim = np.round(sim, 1)   # tie-heavy half
            q_labels = rng.integers(0, 4, size=n_q)
            g_labels = rng.integers(0, 4, size=n_g)
            g_labels[0] = q_labels[0]    # at least one query has a match
            g_ids = rng.permutation(1000)[:n_g]
            k_max = int(rng.integers(1, n_g + 1))

            cmc, mean_ap, n_excl = cmc_map(sim, q_labels, g_labels, g_ids, k_max)
            ocmc, omap, oexcl = oracles.cmc_map_oracle(
                sim, q_labels, g_labels, g_ids, k_max)
            assert n_excl == oexcl
            assert mean_ap == omap
            assert np.array_equal(cmc, np.asarray(ocmc))

    def test_ties_broken_by_gallery_id_ascending(self):
        sim = np.array([[0.5, 0.5, 0.5]])
        g_ids = np.array([7, 3, 5])
        # the only relevant item carries id 5; sorted by id the order is
        # (3, 5, 7), so the hit lands at rank 2
        cmc, mean_ap, _ = cmc_map(sim, np.array([1]), np.array([0, 0, 1]),
                                  g_ids, k_max=3)
        assert cmc[0] == 0.0
        assert cmc[1] == 1.0
        assert mean_ap == 0.5

    def test_cmc_monotone_and_bounded(self):
        rng = derive_rng(1, "monotone")
        for _ in range(20):
            sim = rng.standard_normal((5, 12))
            labels = rng.integers(0, 3, size=12)
            cmc, mean_ap, _ = cmc_map(sim, labels[:5], labels, np.arange(12), 12)
            assert (np.diff(cmc) >= 0).all()
            assert 0.0 <= cmc[0] and cmc[-1] <= 1.0
            assert 0.0 <= mean_ap <= 1.0

    def test_every_query_excluded_raises(self):
        sim = np.ones((2, 3))
        with pytest.raises(ProtocolError):
            cmc_map(sim, np.array([9, 9]), np.array([0, 1, 2]),
                    np.arange(3), k_max=3)

    def test_label_shape_mismatch_rejected(self):
        with pytest.raises(ProtocolError):
            cmc_map(np.ones((2, 3)), np.array([0]), np.array([0, 1, 2]),
                    np.arange(3), k_max=3)

    def test_rank_accessor_clamps(self):
        report = RetrievalReport(cmc=np.array([0.25, 0.5, 1.0]), map=0.5,
                                 n_queries=4, n_gallery=3, n_excluded=0,
                                 diagnostics={})
        assert report.rank(1) == 0.25
        assert report.rank(3) == 1.0
        assert report.rank(50) == 1.0


class TestProtocolValidation:
    def test_same_modality_rejected(self):
        with pytest.raises(ValueError):
            Protocol(query_modality="V", gallery_modality="V").validate()

    def test_unknown_shots_rejected(self):
        with pytest.raises(ValueError):
            Protocol(shots="triple").validate()


# ------------------------------------------------------------ evaluate()

class TestEvaluate:
    def test_self_retrieval_is_perfect(self):
        # gallery duplicates the query set with one sample per identity
        rng = derive_rng(2, "self-retrieval")
        d = 5
        rows = []
        for y in range(4):
            x = rng.standard_normal(d)
            rows.append((2 * y, y, "V", x))
            rows.append((2 * y + 1, y, "R", x.copy()))
        split = make_split(rows)
        report = evaluate(identity_map_store(d), split, Protocol())
        assert report.rank(1) == 1.0
        assert report.map == 1.0
        assert report.n_excluded == 0

    def test_report_invariant_to_sample_order(self, tiny_bundle):
        store = init_params(EncoderConfig(
            d_in_visual=10, d_in_text=10, n_classes=4, seed=0))
        split = tiny_bundle.test
        base = evaluate(store, split, Protocol(shots="single", seed=3))
        shuffled = Split(list(reversed(split.samples)))
        other = evaluate(store, shuffled, Protocol(shots="single", seed=3))
        assert np.array_equal(base.cmc, other.cmc)
        assert base.map == other.map
        assert base.n_gallery == other.n_gallery

    def test_single_shot_keeps_one_gallery_sample_per_identity(self, tiny_bundle):
        store = init_params(EncoderConfig(
            d_in_visual=10, d_in_text=10, n_classes=4, seed=0))
        report = evaluate(store, tiny_bundle.test, Protocol(shots="single"))
        assert report.n_gallery == tiny_bundle.test.n_identities
        multi = evaluate(store, tiny_bundle.test, Protocol(shots="multi"))
        assert multi.n_gallery == len(tiny_bundle.test.by_modality("V"))

    def test_single_shot_seed_changes_gallery_choice(self, tiny_bundle):
        store = init_params(EncoderConfig(
            d_in_visual=10, d_in_text=10, n_classes=4, seed=0))
        a = evaluate(store, tiny_bundle.test, Protocol(shots="single", seed=0))
        b = evaluate(store, tiny_bundle.test, Protocol(shots="single", seed=1))
        # same gallery size; the sampled representatives generally differ
        assert a.n_gallery == b.n_gallery

    def test_queries_without_gallery_identity_are_excluded(self):
        rng = derive_rng(3, "excluded")
        d = 4
        rows = [(0, 0, "V", rng.standard_normal(d)),
                (1, 0, "R", rng.standard_normal(d)),
                (2, 0, "R", rng.standard_normal(d)),
                (3, 1, "R", rng.standard_normal(d)),   # id 1 has no V sample
                (4, 1, "R", rng.standard_normal(d))]
        report = evaluate(identity_map_store(d), make_split(rows), Protocol())
        assert report.n_queries == 4
        assert report.n_excluded == 2

    def test_no_query_with_gallery_match_raises(self):
        rng = derive_rng(4, "all-excluded")
        d = 4
        rows = [(0, 0, "R", rng.standard_normal(d)),
                (1, 1, "V", rng.standard_normal(d))]
        with pytest.raises(ProtocolError):
            evaluate(identity_map_store(d), make_split(rows), Protocol())

    def test_missing_modality_entirely_raises(self):
        rows = [(0, 0, "V", np.ones(4))]
        with pytest.raises(ProtocolError):
            evaluate(identity_map_store(4), make_split(rows), Protocol())

    def test_chance_level_on_structureless_features(self):
        # identity labels carry no signal: every x_raw is independent noise
        rng = derive_rng(5, "chance")
        d = 6
        rows = []
        sid = 0
        for y in range(8):
            for m in ("V", "R"):
                for _ in range(4):
                    rows.append((sid, y, m, rng.standard_normal(d)))
                    sid += 1
        store = init_params(EncoderConfig(
            d_in_visual=d, d_in_text=d, n_classes=8, seed=0))
        report = evaluate(store, make_split(rows), Protocol())
        assert 0.02 < report.rank(1) < 0.35      # chance is 1/8
        assert 0.05 < report.map < 0.35          # relevant fraction is 4/32


# ----------------------------------------------------------- modality gap

class TestModalityGap:
    def test_equidistant_clouds_give_ratio_one(self):
        # per identity: V points and R points all mutually sqrt(2)c apart,
        # so inter and intra means coincide exactly
        c = 2.0
        d = 4
        rows = [(0, 0, "V", c * np.eye(d)[0]), (1, 0, "V", c * np.eye(d)[1]),
                (2, 0, "R", c * np.eye(d)[2]), (3, 0, "R", c * np.eye(d)[3])]
        gap = modality_gap(embed_split(identity_map_store(d), make_split(rows)))
        assert abs(gap["gap_ratio"] - 1.0) < 1e-9
        assert gap["intra_mean"] > 0

    def test_duplicated_clouds_give_known_ratio(self):
        # R duplicates V exactly: inter pairs include the k zero-distance
        # self-pairs, so inter/intra = (k-1)/k
        rng = derive_rng(6, "dup")
        d, k = 5, 4
        xs = [rng.standard_normal(d) for _ in range(k)]
        rows = [(i, 0, "V", xs[i]) for i in range(k)]
        rows += [(k + i, 0, "R", xs[i].copy()) for i in range(k)]
        gap = modality_gap(embed_split(identity_map_store(d), make_split(rows)))
        assert abs(gap["gap_ratio"] - (k - 1) / k) < 1e-9

    def test_disjoint_stem_supports_give_large_ratio(self):
        rng = derive_rng(7, "disjoint")
        d = 4
        g_v = np.vstack([np.eye(d), np.zeros((d, d))])     # V -> first half
        g_r = np.vstack([np.zeros((d, d)), np.eye(d)])     # R -> second half
        store = linear_store(g_v, g_r)
        base = 5.0 + rng.random(d)
        rows = []
        for i in range(3):
            rows.append((i, 0, "V", base + 1e-3 * rng.standard_normal(d)))
            rows.append((3 + i, 0, "R", base + 1e-3 * rng.standard_normal(d)))
        gap = modality_gap(embed_split(store, make_split(rows)))
        assert gap["gap_ratio"] > 10.0

    def test_single_modality_identities_are_skipped(self):
        rng = derive_rng(8, "skip")
        d = 4
        rows = [(0, 0, "V", rng.standard_normal(d)),
                (1, 0, "V", rng.standard_normal(d)),
                (2, 0, "R", rng.standard_normal(d)),
                (3, 1, "V", rng.standard_normal(d))]
        gap = modality_gap(embed_split(identity_map_store(d), make_split(rows)))
        assert gap["n_skipped"] == 1.0


# ---------------------------------------------------- conflict sensitivity

class TestConflictSensitivity:
    def test_identity_encoder_matches_mixing_column_norms(self, tiny_bundle):
        meta = tiny_bundle.meta
        split = tiny_bundle.test
        d = meta.config.d_feature
        store = identity_map_store(d)
        measured = conflict_sensitivity(store, meta, embed_split(store, split))

        w_v, w_r, _ = meta.mixing_matrices()
        cols = meta.conflict_slice
        dc = meta.config.d_conflict
        total, count = 0.0, 0
        for modality, w in (("V", w_v), ("R", w_r)):
            n = len(split.by_modality(modality))
            block = w[:, cols]
            for i in range(n):
                total += float(np.linalg.norm(block[:, i % dc]))
                count += 1
        assert measured == pytest.approx(total / count, rel=1e-9)

    def test_conflict_blind_encoder_scores_zero(self, tiny_bundle):
        meta = tiny_bundle.meta
        cfg = meta.config
        d = cfg.d_feature
        d_keep = cfg.d_id + cfg.d_view
        keep = np.hstack([np.eye(d_keep), np.zeros((d_keep, cfg.d_conflict))])
        w_v, w_r, _ = meta.mixing_matrices()
        store = linear_store(keep @ np.linalg.inv(w_v),
                             keep @ np.linalg.inv(w_r))
        measured = conflict_sensitivity(store, meta, embed_split(store, tiny_bundle.test))
        assert measured < 1e-6

    def test_sensitive_vs_blind_orders_correctly(self, tiny_bundle):
        d = tiny_bundle.meta.config.d_feature
        store = identity_map_store(d)
        sensitive = conflict_sensitivity(store, tiny_bundle.meta,
                                         embed_split(store, tiny_bundle.test))
        assert sensitive > 0.1

    def test_empty_split_rejected(self, tiny_bundle):
        with pytest.raises(ProtocolError):
            store = identity_map_store(10)
            conflict_sensitivity(store, tiny_bundle.meta, embed_split(store, Split([])))


# -------------------------------------------------- diagnostics via evaluate

class TestEvaluateDiagnostics:
    def test_gap_always_present_conflict_only_with_meta(self, tiny_bundle):
        store = init_params(EncoderConfig(
            d_in_visual=10, d_in_text=10, n_classes=4, seed=0))
        plain = evaluate(store, tiny_bundle.test, Protocol())
        assert "gap_ratio" in plain.diagnostics
        assert "conflict_sensitivity" not in plain.diagnostics
        rich = evaluate(store, tiny_bundle.test, Protocol(), meta=tiny_bundle.meta)
        assert "conflict_sensitivity" in rich.diagnostics
        assert rich.diagnostics["conflict_sensitivity"] > 0.0

    def test_untrained_default_data_shows_modality_gap(self, default_bundle):
        store = init_params(EncoderConfig(
            d_in_visual=24, d_in_text=24,
            n_classes=default_bundle.train.n_identities, seed=0))
        report = evaluate(store, default_bundle.test, Protocol())
        assert report.diagnostics["gap_ratio"] > 1.05


class TestEmbeddingPass:
    @staticmethod
    def count_encodes(monkeypatch) -> list[int]:
        calls = []
        encode = model.encode_visual

        def counting(store, x, modality):
            calls.append(len(x))
            return encode(store, x, modality)
        monkeypatch.setattr(model, "encode_visual", counting)
        return calls

    @pytest.mark.parametrize("shots", ["single", "multi"])
    def test_each_modality_encoded_once(self, default_bundle, monkeypatch, shots):
        store = init_params(EncoderConfig(
            d_in_visual=24, d_in_text=24,
            n_classes=default_bundle.train.n_identities, seed=0))
        calls = self.count_encodes(monkeypatch)
        evaluate(store, default_bundle.test, Protocol(shots=shots))
        assert len(calls) == 2
        calls.clear()
        evaluate(store, default_bundle.test, Protocol(shots=shots),
                 meta=default_bundle.meta)
        # the two extra calls encode the conflict-perturbed features
        assert len(calls) == 4
