"""Retrieval metrics against a brute-force oracle, the deterministic tie
rule, gallery protocols, and the modality-gap / conflict-sensitivity
diagnostics with analytically constructed encoders."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import oracles
from xmml import evaluator, model
from xmml.evaluator import (REPORTED_METRICS, Protocol, RetrievalReport,
                            cmc_map, conflict_sensitivity, embed_split, evaluate,
                            modality_gap)
from xmml.model import EncoderConfig, init_params
from xmml.numerics import ProtocolError, derive_rng
from xmml.synthdata import GeneratorConfig, Split, generate_dataset
from xmml.trainer import TrainConfig, encoder_config_for


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
    sids, ys, mods, xs = zip(*rows)
    return Split(sids, ys, mods, np.zeros(len(rows)), xs, np.zeros((len(rows), len(xs[0]))))


def reversed_split(split: Split) -> Split:
    """The same rows as `split`, built from columns in reverse sample_id order."""
    v, r = split.rows["V"], split.rows["R"]
    cols = [np.concatenate([getattr(v, c), getattr(r, c)])
            for c in ("sample_id", "identity", "view", "x_raw", "l_raw")]
    modality = ["V"] * len(v) + ["R"] * len(r)
    order = np.argsort(cols[0])[::-1]
    sid, y, view, x, l = (c[order] for c in cols)
    return Split(sid, y, np.asarray(modality)[order], view, x, l)


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
        report = RetrievalReport(protocol=Protocol(), cmc=np.array([0.25, 0.5, 1.0]),
                                 map=0.5, n_queries=4, n_gallery=3, n_excluded=0,
                                 diagnostics={})
        assert report.rank(1) == 0.25
        assert report.rank(3) == 1.0
        assert report.rank(50) == 1.0


def assert_equals_oracle(sim, q_labels, g_labels, g_ids, k_max):
    cmc, mean_ap, n_excl = cmc_map(sim, q_labels, g_labels, g_ids, k_max)
    ocmc, omap, oexcl = oracles.cmc_map_oracle(sim, q_labels, g_labels, g_ids, k_max)
    assert n_excl == oexcl
    assert mean_ap == omap
    assert np.array_equal(cmc, np.asarray(ocmc))


def first_hit_ranks(sim, q_labels, g_labels, g_ids) -> list[int]:
    """Oracle rank of each query's first relevant item (-1 when excluded)."""
    out = []
    for qi in range(len(sim)):
        order = oracles.rank_gallery(sim[qi], g_ids)
        hits = [pos for pos, j in enumerate(order) if g_labels[j] == q_labels[qi]]
        out.append(hits[0] if hits else -1)
    return out


class TestCountingRanks:
    """Chunked rank counting against the sorting oracle, exactly (`==`)."""

    @staticmethod
    def chunk_rows(monkeypatch, rows: int, width: int, n_g: int) -> None:
        # cmc_map takes max(1, cells // (width * n_g)) query rows per chunk
        monkeypatch.setattr(evaluator, "_CHUNK_CELLS", rows * width * n_g)

    @staticmethod
    def instance(seed: int, n_q: int = 23, n_g: int = 40, n_labels: int = 5):
        rng = derive_rng(seed, "counting-ranks")
        sim = rng.standard_normal((n_q, n_g))
        q_labels = rng.integers(0, n_labels, size=n_q)
        g_labels = rng.integers(0, n_labels, size=n_g)
        g_ids = 7 * rng.permutation(5 * n_g)[:n_g] + 3   # unsorted, with gaps
        return sim, q_labels, g_labels, g_ids

    @pytest.mark.parametrize("rows", [1, 2, 5, 8, 23, 64])
    def test_query_chunks_with_a_partial_final_chunk(self, monkeypatch, rows):
        for seed in range(5):
            sim, q_labels, g_labels, g_ids = self.instance(seed)
            width = max(int(np.count_nonzero(g_labels == y)) for y in q_labels)
            self.chunk_rows(monkeypatch, rows, width, len(g_labels))
            assert_equals_oracle(sim, q_labels, g_labels, g_ids, k_max=10)

    def test_excluded_queries_inside_a_chunk(self, monkeypatch):
        sim, q_labels, g_labels, g_ids = self.instance(10, n_q=12, n_labels=4)
        assert set(q_labels) <= set(g_labels)
        q_labels[[1, 5, 6, 10]] = 9          # identity absent from the gallery
        width = max(int(np.count_nonzero(g_labels == y)) for y in q_labels)
        self.chunk_rows(monkeypatch, 4, width, len(g_labels))
        cmc, mean_ap, n_excl = cmc_map(sim, q_labels, g_labels, g_ids, 10)
        assert n_excl == 4
        assert_equals_oracle(sim, q_labels, g_labels, g_ids, k_max=10)

    def test_tie_heavy_similarities_with_signed_zeros(self, monkeypatch):
        for seed in range(20):
            sim, q_labels, g_labels, g_ids = self.instance(20 + seed)
            # one decimal leaves about 40 distinct values; zeros take both signs
            sim = np.round(sim, 1)
            zeros = sim == 0.0
            sim[zeros] = np.where(np.arange(zeros.sum()) % 2 == 0, 0.0, -0.0)
            assert np.signbit(sim[zeros]).any() and not np.signbit(sim[zeros]).all()
            self.chunk_rows(monkeypatch, 3, len(g_labels), len(g_labels))
            assert_equals_oracle(sim, q_labels, g_labels, g_ids, k_max=15)

    def test_ties_follow_ids_not_columns(self):
        # every similarity ties; the ids run against the column order
        sim = np.zeros((2, 5))
        sim[1] = -0.0
        g_ids = np.array([40, 30, 20, 10, 0])
        g_labels = np.array([1, 0, 0, 1, 0])
        # label 1 sits at ids 40 and 10, ranks 4 and 1 (columns 0 and 3)
        cmc, mean_ap, _ = cmc_map(sim, np.array([1, 1]), g_labels, g_ids, k_max=5)
        assert list(cmc) == [0.0, 1.0, 1.0, 1.0, 1.0]
        assert mean_ap == (1 / 2 + 2 / 5) / 2
        assert_equals_oracle(sim, np.array([1, 1]), g_labels, g_ids, k_max=5)

    def test_many_relevant_items_keep_the_summation_order(self):
        # one identity owns 20 gallery items, others 1-3: AP sums of 20 terms
        # differ in the low bits between sequential and pairwise summation
        for seed in range(30):
            rng = derive_rng(seed, "many-relevant")
            g_labels = np.concatenate([np.zeros(20, dtype=np.int64),
                                       rng.integers(1, 8, size=15)])
            rng.shuffle(g_labels)
            q_labels = np.concatenate([[0, 0, 0], rng.integers(0, 8, size=9)])
            sim = rng.standard_normal((12, len(g_labels)))
            g_ids = rng.permutation(1000)[:len(g_labels)]
            assert_equals_oracle(sim, q_labels, g_labels, g_ids, k_max=35)

    def test_k_max_below_some_first_hits(self, monkeypatch):
        sim, q_labels, g_labels, g_ids = self.instance(40)
        first = first_hit_ranks(sim, q_labels, g_labels, g_ids)
        k_max = 2
        assert any(r >= k_max for r in first) and any(0 <= r < k_max for r in first)
        self.chunk_rows(monkeypatch, 4, len(g_labels), len(g_labels))
        cmc, _, _ = cmc_map(sim, q_labels, g_labels, g_ids, k_max)
        assert len(cmc) == k_max and cmc[-1] < 1.0
        assert_equals_oracle(sim, q_labels, g_labels, g_ids, k_max)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_similarity_rejected(self, monkeypatch, bad):
        sim, q_labels, g_labels, g_ids = self.instance(50)
        sim[13, 2] = bad
        self.chunk_rows(monkeypatch, 4, len(g_labels), len(g_labels))
        with pytest.raises(ProtocolError, match="query 13 holds NaN or inf"):
            cmc_map(sim, q_labels, g_labels, g_ids, 10)


class TestProtocolValidation:
    def test_same_modality_rejected(self):
        with pytest.raises(ValueError):
            Protocol(query_modality="V", gallery_modality="V")

    def test_unknown_shots_rejected(self):
        with pytest.raises(ValueError):
            Protocol(shots="triple")


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
        report = evaluate(identity_map_store(d), split, [Protocol()])[0]
        assert report.rank(1) == 1.0
        assert report.map == 1.0
        assert report.n_excluded == 0

    def test_report_invariant_to_sample_order(self, tiny_bundle):
        store = init_params(EncoderConfig(
            d_in_visual=10, d_in_text=10, n_classes=4, seed=0))
        split = tiny_bundle.test
        base = evaluate(store, split, [Protocol(shots="single", seed=3)])[0]
        shuffled = reversed_split(split)
        other = evaluate(store, shuffled, [Protocol(shots="single", seed=3)])[0]
        assert np.array_equal(base.cmc, other.cmc)
        assert base.map == other.map
        assert base.n_gallery == other.n_gallery

    def test_single_shot_keeps_one_gallery_sample_per_identity(self, tiny_bundle):
        store = init_params(EncoderConfig(
            d_in_visual=10, d_in_text=10, n_classes=4, seed=0))
        report = evaluate(store, tiny_bundle.test, [Protocol(shots="single")])[0]
        assert report.n_gallery == len(tiny_bundle.test.identities)
        multi = evaluate(store, tiny_bundle.test, [Protocol(shots="multi")])[0]
        assert multi.n_gallery == len(tiny_bundle.test.rows["V"])

    def test_single_shot_seed_changes_gallery_choice(self, tiny_bundle):
        store = init_params(EncoderConfig(
            d_in_visual=10, d_in_text=10, n_classes=4, seed=0))
        a = evaluate(store, tiny_bundle.test, [Protocol(shots="single", seed=0)])[0]
        b = evaluate(store, tiny_bundle.test, [Protocol(shots="single", seed=1)])[0]
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
        report = evaluate(identity_map_store(d), make_split(rows), [Protocol()])[0]
        assert report.n_queries == 4
        assert report.n_excluded == 2

    def test_no_query_with_gallery_match_raises(self):
        rng = derive_rng(4, "all-excluded")
        d = 4
        rows = [(0, 0, "R", rng.standard_normal(d)),
                (1, 1, "V", rng.standard_normal(d))]
        with pytest.raises(ProtocolError):
            evaluate(identity_map_store(d), make_split(rows), [Protocol()])

    def test_missing_modality_entirely_raises(self):
        rows = [(0, 0, "V", np.ones(4))]
        with pytest.raises(ProtocolError):
            evaluate(identity_map_store(4), make_split(rows), [Protocol()])

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
        report = evaluate(store, make_split(rows), [Protocol()])[0]
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
        split = make_split(rows)
        gap = modality_gap(split, embed_split(identity_map_store(d), split))
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
        split = make_split(rows)
        gap = modality_gap(split, embed_split(identity_map_store(d), split))
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
        split = make_split(rows)
        gap = modality_gap(split, embed_split(store, split))
        assert gap["gap_ratio"] > 10.0

    def test_single_modality_identities_are_skipped(self):
        rng = derive_rng(8, "skip")
        d = 4
        rows = [(0, 0, "V", rng.standard_normal(d)),
                (1, 0, "V", rng.standard_normal(d)),
                (2, 0, "R", rng.standard_normal(d)),
                (3, 1, "V", rng.standard_normal(d))]
        split = make_split(rows)
        gap = modality_gap(split, embed_split(identity_map_store(d), split))
        assert gap["n_skipped"] == 1.0


def modality_gap_per_identity(split, emb):
    """The per-identity loop modality_gap replaced: boolean masks and a
    broadcast difference tensor per identity, sums in ascending identity
    order. Kept as the reference its floats must equal."""
    inter_sum = 0.0
    inter_n = 0
    intra_sum = 0.0
    intra_n = 0
    n_skipped = 0
    labels_v = split.rows["V"].identity
    labels_r = split.rows["R"].identity
    for identity in np.unique(np.concatenate([labels_v, labels_r])):
        in_v = labels_v == identity
        in_r = labels_r == identity
        if not (in_v.any() and in_r.any()):
            n_skipped += 1
            continue
        e_v = emb["V"][in_v]
        e_r = emb["R"][in_r]
        diff = e_v[:, None, :] - e_r[None, :, :]
        d = np.sqrt((diff * diff).sum(axis=2))
        inter_sum += float(d.sum())
        inter_n += d.size
        for e in (e_v, e_r):
            if e.shape[0] >= 2:
                dd = e[:, None, :] - e[None, :, :]
                dist = np.sqrt((dd * dd).sum(axis=2))
                iu = np.triu_indices(e.shape[0], k=1)
                intra_sum += float(dist[iu].sum())
                intra_n += len(iu[0])
    inter_mean = inter_sum / inter_n if inter_n else 0.0
    intra_mean = intra_sum / intra_n if intra_n else 0.0
    ratio = inter_mean / intra_mean if intra_mean > 0 else float("inf")
    return {"intra_mean": intra_mean, "inter_mean": inter_mean,
            "gap_ratio": ratio, "n_skipped": float(n_skipped)}


def shuffled_split(rng, counts_v: dict[int, int], counts_r: dict[int, int], d: int):
    """(split, emb): a split with `counts_m[identity]` rows per identity in
    modality m, built from columns in a random order with sample_ids out of
    order, and random embeddings row-aligned with its rows."""
    labels = [rng.permutation(np.repeat(list(c), list(c.values()))).astype(np.int64)
              for c in (counts_v, counts_r)]
    n = len(labels[0]) + len(labels[1])
    modality = ["V"] * len(labels[0]) + ["R"] * len(labels[1])
    split = Split(rng.permutation(n), np.concatenate(labels), modality, np.zeros(n),
                  np.zeros((n, 1)), np.zeros((n, 1)))
    return split, {m: rng.standard_normal((len(split.rows[m]), d)) for m in ("V", "R")}


class TestModalityGapReference:
    def test_equals_the_per_identity_loop(self):
        rng = derive_rng(9, "gap-reference")
        for trial in range(20):
            n_ids = int(rng.integers(1, 40))
            d = int(rng.choice([1, 3, 32, 130]))
            # 0 leaves an identity out of that modality; 1 has no intra pair
            counts_v = {y: int(rng.integers(0, 6)) for y in range(n_ids)}
            counts_r = {y: int(rng.integers(0, 6)) for y in range(n_ids)}
            split, emb = shuffled_split(rng, {y: k for y, k in counts_v.items() if k},
                                        {y: k for y, k in counts_r.items() if k}, d)
            assert modality_gap(split, emb) == modality_gap_per_identity(split, emb)

    def test_skipped_and_one_sample_identities(self):
        rng = derive_rng(10, "gap-reference")
        split, emb = shuffled_split(rng, {0: 3, 1: 1, 2: 2, 5: 1}, {0: 1, 1: 1, 3: 4, 5: 2}, 8)
        gap = modality_gap(split, emb)
        assert gap["n_skipped"] == 2.0           # identities 2 and 3
        assert gap == modality_gap_per_identity(split, emb)
        ones = shuffled_split(rng, {0: 1, 1: 1}, {0: 1, 1: 1}, 8)
        assert modality_gap(*ones) == modality_gap_per_identity(*ones)
        assert modality_gap(*ones)["gap_ratio"] == np.inf

    def test_equals_the_per_identity_loop_on_an_embedded_split(self, tiny_bundle):
        store = init_params(EncoderConfig(d_in_visual=10, d_in_text=10, n_classes=4, seed=0))
        split = tiny_bundle.test
        emb = embed_split(store, split)
        assert modality_gap(split, emb) == modality_gap_per_identity(split, emb)


class TestStackedModalityGap:
    # numpy sums a run of more than 8 floats pairwise, in an order that
    # depends on the run's memory layout; these counts give each identity
    # up to 144 inter and 66 intra distances
    @pytest.mark.parametrize("counts", [(8, 8), (12, 5), (9, 1)])
    def test_equals_the_per_identity_loop_at_larger_counts(self, counts):
        rng = derive_rng(11, "gap-stacked", *counts)
        k_v, k_r = counts
        split, emb = shuffled_split(rng, {y: k_v for y in range(48)},
                                    {y: k_r if y % 3 else k_v for y in range(48)}, 32)
        assert modality_gap(split, emb) == modality_gap_per_identity(split, emb)


# ---------------------------------------------------- conflict sensitivity

class TestConflictSensitivity:
    def test_identity_encoder_matches_mixing_column_norms(self, tiny_bundle):
        meta = tiny_bundle.meta
        split = tiny_bundle.test
        d = meta.config.d_feature
        store = identity_map_store(d)
        measured = conflict_sensitivity(store, meta, split, embed_split(store, split))

        w_v, w_r, _ = meta.mixing_matrices()
        cols = meta.conflict_slice
        dc = meta.config.d_conflict
        total, count = 0.0, 0
        for modality, w in (("V", w_v), ("R", w_r)):
            n = len(split.rows[modality])
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
        split = tiny_bundle.test
        measured = conflict_sensitivity(store, meta, split, embed_split(store, split))
        assert measured < 1e-6

    def test_sensitive_vs_blind_orders_correctly(self, tiny_bundle):
        d = tiny_bundle.meta.config.d_feature
        store = identity_map_store(d)
        split = tiny_bundle.test
        sensitive = conflict_sensitivity(store, tiny_bundle.meta, split,
                                         embed_split(store, split))
        assert sensitive > 0.1

    def test_empty_split_rejected(self, tiny_bundle):
        with pytest.raises(ProtocolError):
            store = identity_map_store(10)
            empty = Split([], [], [], [], np.zeros((0, 10)), np.zeros((0, 10)))
            conflict_sensitivity(store, tiny_bundle.meta, empty, embed_split(store, empty))


# -------------------------------------------------- diagnostics via evaluate

class TestPhaseTimings:
    PHASES = {"embed", "cmc_map", "modality_gap", "conflict_sensitivity"}

    def test_phases_timed_without_changing_the_report(self, tiny_bundle):
        store = init_params(EncoderConfig(
            d_in_visual=10, d_in_text=10, n_classes=4, seed=0))
        timings: dict[str, float] = {}
        timed = evaluate(store, tiny_bundle.test, [Protocol()], meta=tiny_bundle.meta,
                         timings=timings)[0]
        assert set(timings) == self.PHASES
        assert all(seconds >= 0.0 for seconds in timings.values())
        plain = evaluate(store, tiny_bundle.test, [Protocol()], meta=tiny_bundle.meta)[0]
        assert np.array_equal(timed.cmc, plain.cmc)
        assert timed.map == plain.map
        assert timed.diagnostics == plain.diagnostics

    def test_timings_accumulate_over_calls(self, tiny_bundle):
        store = init_params(EncoderConfig(
            d_in_visual=10, d_in_text=10, n_classes=4, seed=0))
        timings: dict[str, float] = {}
        evaluate(store, tiny_bundle.test, [Protocol()], timings=timings)
        # conflict sensitivity runs only with meta
        assert set(timings) == self.PHASES - {"conflict_sensitivity"}
        first = dict(timings)
        evaluate(store, tiny_bundle.test, [Protocol(shots="single")], timings=timings)
        assert all(timings[phase] >= first[phase] for phase in first)


class TestEvaluateDiagnostics:
    def test_gap_always_present_conflict_only_with_meta(self, tiny_bundle):
        store = init_params(EncoderConfig(
            d_in_visual=10, d_in_text=10, n_classes=4, seed=0))
        plain = evaluate(store, tiny_bundle.test, [Protocol()])[0]
        assert "gap_ratio" in plain.diagnostics
        assert "conflict_sensitivity" not in plain.diagnostics
        rich = evaluate(store, tiny_bundle.test, [Protocol()], meta=tiny_bundle.meta)[0]
        assert "conflict_sensitivity" in rich.diagnostics
        assert rich.diagnostics["conflict_sensitivity"] > 0.0
        assert tuple(rich.metrics()) == REPORTED_METRICS
        assert tuple(plain.metrics()) == REPORTED_METRICS[:-1]
        assert rich.metrics()["rank5"] == rich.rank(5)

    def test_untrained_default_data_shows_modality_gap(self, default_bundle):
        store = init_params(EncoderConfig(
            d_in_visual=24, d_in_text=24,
            n_classes=len(default_bundle.train.identities), seed=0))
        report = evaluate(store, default_bundle.test, [Protocol()])[0]
        assert report.diagnostics["gap_ratio"] > 1.05

    def test_infinite_diagnostic_raises_naming_it(self, default_bundle, inter_overflow_init,
                                                  recwarn):
        store = model.init_params(encoder_config_for(TrainConfig(), default_bundle))
        with pytest.raises(ProtocolError, match=r"^diagnostic inter_mean is inf$") as info:
            evaluate(store, default_bundle.test, [Protocol()], meta=default_bundle.meta)
        diagnostics = info.value.diagnostics
        assert list(diagnostics) == ["intra_mean", "inter_mean", "gap_ratio",
                                     "conflict_sensitivity"]
        assert 0.0 < diagnostics["intra_mean"] < np.inf
        assert diagnostics["gap_ratio"] == np.inf
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestEmbeddingPass:
    @staticmethod
    def count_encodes(monkeypatch) -> list[int]:
        calls = []
        encode = model.encode_visual

        def counting(store, x, modality, **kwargs):
            calls.append(len(x))
            return encode(store, x, modality, **kwargs)
        monkeypatch.setattr(model, "encode_visual", counting)
        return calls

    @pytest.mark.parametrize("shots", ["single", "multi", "single,multi"])
    def test_each_modality_encoded_once(self, default_bundle, monkeypatch, shots):
        store = init_params(EncoderConfig(
            d_in_visual=24, d_in_text=24,
            n_classes=len(default_bundle.train.identities), seed=0))
        calls = self.count_encodes(monkeypatch)
        gaps = []
        gap = evaluator.modality_gap
        monkeypatch.setattr(evaluator, "modality_gap",
                            lambda split, emb: gaps.append(1) or gap(split, emb))
        protocols = [Protocol(shots=s) for s in shots.split(",")]
        evaluate(store, default_bundle.test, protocols)
        assert len(calls) == 2
        assert len(gaps) == 1
        calls.clear()
        evaluate(store, default_bundle.test, protocols, meta=default_bundle.meta)
        # the two extra calls encode the conflict-perturbed features
        assert len(calls) == 4

    def test_peak_memory_stays_below_three_hidden_layers(self):
        # value-only encodes: the V embeddings (half a layer) and two layers
        # of the R pass are live at once; keeping the V pass's per-layer
        # cache alive took about 9.6 layers
        split = generate_dataset(GeneratorConfig(n_identities_train=2,
                                                 n_identities_test=128)).test
        store = init_params(EncoderConfig(d_in_visual=24, d_in_text=24, n_classes=2,
                                          d_hidden=64, seed=0))
        layer = len(split.rows["R"]) * 64 * 8   # bytes of one rows x d_hidden float64 array
        tracemalloc.start()
        try:
            embed_split(store, split)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * layer

    def test_one_call_matches_one_call_per_protocol(self, tiny_bundle):
        store = init_params(EncoderConfig(
            d_in_visual=10, d_in_text=10, n_classes=4, seed=0))
        protocols = [Protocol(shots="single", seed=1), Protocol(shots="multi")]
        reports = evaluate(store, tiny_bundle.test, protocols, meta=tiny_bundle.meta)
        assert [r.protocol for r in reports] == protocols
        for proto, report in zip(protocols, reports):
            alone = evaluate(store, tiny_bundle.test, [proto], meta=tiny_bundle.meta)[0]
            assert np.array_equal(report.cmc, alone.cmc)
            assert report.map == alone.map
            assert (report.n_queries, report.n_gallery, report.n_excluded) == (
                alone.n_queries, alone.n_gallery, alone.n_excluded)
            assert report.diagnostics == alone.diagnostics
