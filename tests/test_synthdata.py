"""Synthetic bimodal dataset generator: determinism, split structure, the
two planted signals (complementary masks, conflicting modality channels),
serialization round-trips, and the identity-balanced batch sampler."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import tracemalloc

import numpy as np
import pytest

import oracles
from xmml.evaluator import Protocol, evaluate
from xmml.model import EncoderConfig, init_params, load_checkpoint, save_checkpoint
from xmml.numerics import ProtocolError, derive_rng
from xmml.synthdata import (Batch, DatasetMeta, GeneratorConfig, Split, _generate_split,
                            generate_dataset, load_dataset, load_split, sample_batch,
                            save_dataset, save_split)

TINY = GeneratorConfig(n_identities_train=4, n_identities_test=3,
                       samples_per_identity_per_modality=2,
                       d_id=6, d_view=2, d_conflict=2, seed=0)


def all_x(split) -> np.ndarray:
    return np.concatenate([split.rows[m].x_raw for m in ("V", "R")])


def planted(cfg: GeneratorConfig):
    """(split, conflict latents, masks) of the train and test splits of `cfg`,
    drawn as generate_dataset draws them."""
    meta = DatasetMeta(config=cfg, mix_seed=cfg.seed)
    n_train = cfg.n_identities_train
    train = _generate_split(cfg, range(n_train), "train", meta, id_offset=0)
    test_ids = range(n_train, n_train + cfg.n_identities_test)
    return [train, _generate_split(cfg, test_ids, "test", meta, id_offset=len(train[0]))]


# ------------------------------------------------------------ determinism

class TestDeterminism:
    def test_equal_seeds_give_bit_identical_datasets(self):
        a = generate_dataset(TINY)
        b = generate_dataset(dataclasses.replace(TINY))
        assert np.array_equal(all_x(a.train), all_x(b.train))
        assert np.array_equal(all_x(a.test), all_x(b.test))
        for m in ("V", "R"):
            assert np.array_equal(a.train.rows[m].l_raw, b.train.rows[m].l_raw)

    def test_different_seeds_differ(self):
        a = generate_dataset(TINY)
        b = generate_dataset(dataclasses.replace(TINY, seed=1))
        assert not np.array_equal(all_x(a.train), all_x(b.train))

    def test_mixing_matrices_regenerate_exactly(self, tiny_bundle):
        w1 = tiny_bundle.meta.mixing_matrices()
        w2 = tiny_bundle.meta.mixing_matrices()
        for a, b in zip(w1, w2):
            assert np.array_equal(a, b)
        w_v, w_r, u = w1
        assert not np.array_equal(w_v, w_r)


# -------------------------------------------------------- split structure

class TestSplitStructure:
    def test_disjoint_identity_sets(self, tiny_bundle):
        train_ids = set(tiny_bundle.train.identities)
        test_ids = set(tiny_bundle.test.identities)
        assert train_ids.isdisjoint(test_ids)

    def test_sample_counts(self, tiny_bundle):
        k = TINY.samples_per_identity_per_modality
        assert len(tiny_bundle.train) == TINY.n_identities_train * 2 * k
        assert len(tiny_bundle.test) == TINY.n_identities_test * 2 * k
        for split in (tiny_bundle.train, tiny_bundle.test):
            for y in split.identities:
                for m in ("V", "R"):
                    assert len(split.of(y, m)) == k

    def test_sample_ids_unique_across_bundle(self, tiny_bundle):
        ids = [sid for split in (tiny_bundle.train, tiny_bundle.test)
               for rows in split.rows.values() for sid in rows.sample_id.tolist()]
        assert len(ids) == len(set(ids))

    def test_feature_dimensions(self, tiny_bundle):
        d = TINY.d_id + TINY.d_view + TINY.d_conflict
        for rows in tiny_bundle.train.rows.values():
            assert rows.x_raw.shape == (len(rows), d)
            assert rows.l_raw.shape == (len(rows), d)

    def test_rows_sorted_by_sample_id_with_int64_columns(self, tiny_bundle):
        for rows in tiny_bundle.train.rows.values():
            assert np.all(np.diff(rows.sample_id) > 0)
            for column in (rows.sample_id, rows.identity, rows.view):
                assert column.dtype == np.int64 and column.shape == (len(rows),)

    def test_label_index_is_dense(self, tiny_bundle):
        li = tiny_bundle.train.label_index
        assert sorted(li.values()) == list(range(len(li)))


# --------------------------------------------------------- planted signals

class TestPlantedSignals:
    def test_conflict_latents_differ_between_modalities(self):
        # the per-identity modality channels should disagree almost always
        total = 0
        far = 0
        for seed in range(10):
            for _, conflict_latents, _ in planted(dataclasses.replace(TINY, seed=seed)):
                for y, latents in conflict_latents.items():
                    total += 1
                    if np.linalg.norm(latents["V"] - latents["R"]) > 0.5:
                        far += 1
        assert far / total >= 0.95

    def test_planted_splits_are_the_generated_splits(self):
        bundle = generate_dataset(TINY)
        (train, _, _), (test, _, _) = planted(TINY)
        assert np.array_equal(all_x(train), all_x(bundle.train))
        assert np.array_equal(all_x(test), all_x(bundle.test))
        assert [len(masks) for _, _, masks in planted(TINY)] == [len(train), len(test)]

    def test_mask_union_covers_more_than_single_masks(self):
        # complementary views: an identity's samples jointly reveal more
        # attribute dims than any one sample does on average
        for seed in range(5):
            (split, _, sample_masks), _ = planted(dataclasses.replace(TINY, seed=seed))
            union_cov = []
            single_cov = []
            for y in split.identities:
                masks = [sample_masks[sid] for m in ("V", "R")
                         for sid in split.rows[m].sample_id[split.of(y, m)].tolist()]
                union = np.clip(np.sum(masks, axis=0), 0, 1)
                union_cov.append(union.mean())
                single_cov.extend(m.mean() for m in masks)
            assert np.mean(union_cov) > np.mean(single_cov)

    def test_degenerate_noise_free_config_collapses_views(self):
        cfg = dataclasses.replace(TINY, sigma_view=0.0, sigma_noise=0.0,
                                  sigma_text=0.0, mask_keep_prob=1.0)
        bundle = generate_dataset(cfg)
        split = bundle.train
        for y in split.identities:
            for m in ("V", "R"):
                xs = split.rows[m].x_raw[split.of(y, m)]
                for x in xs[1:]:
                    assert np.array_equal(x, xs[0])
            # same identity, different modality: conflict latent and mixing differ
            assert not np.array_equal(split.rows["V"].x_raw[split.of(y, "V")[0]],
                                      split.rows["R"].x_raw[split.of(y, "R")[0]])

    def test_texts_ignore_view_noise(self):
        cfg = dataclasses.replace(TINY, sigma_noise=0.0, sigma_text=0.0,
                                  mask_keep_prob=1.0, sigma_view=5.0)
        bundle = generate_dataset(cfg)
        split = bundle.train
        y = split.identities[0]
        texts_v = split.rows["V"].l_raw[split.of(y, "V")]
        texts_r = split.rows["R"].l_raw[split.of(y, "R")]
        assert np.array_equal(texts_v[0], texts_v[1])      # views collapse
        assert not np.array_equal(texts_v[0], texts_r[0])  # conflict remains

    def test_text_noise_falls_back_to_feature_noise(self):
        assert GeneratorConfig(sigma_text=None, sigma_noise=0.3).text_sigma == 0.3
        assert GeneratorConfig(sigma_text=0.7, sigma_noise=0.3).text_sigma == 0.7


# ------------------------------------------------------------- validation

class TestConfigValidation:
    @pytest.mark.parametrize("field,value", [
        ("n_identities_train", 0), ("d_id", 0), ("d_conflict", -1),
        ("sigma_view", -0.1), ("sigma_text", -0.5),
        ("mask_keep_prob", 0.0), ("mask_keep_prob", 1.5),
        ("samples_per_identity_per_modality", 0),
    ])
    def test_bad_field_rejected(self, field, value):
        with pytest.raises(ValueError):
            dataclasses.replace(TINY, **{field: value})

    @pytest.mark.parametrize("field", ["d_id", "n_identities_test", "seed"])
    @pytest.mark.parametrize("value", [True, 2.0, "2"])
    def test_integer_field_takes_only_an_integer(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be int"):
            dataclasses.replace(TINY, **{field: value})
        dataclasses.replace(TINY, **{field: np.int64(2)})


# ----------------------------------------------------------- serialization

def _reader_verdict(read, path, name: str) -> str:
    """'ok' when `read(path)` loads, else its message after the list's name."""
    try:
        read(path)
    except ValueError as e:
        return str(e).split(f"{name} ", 1)[1]
    return "ok"


class TestNumberLists:
    """Split features and checkpoint tensors read a JSON list of numbers by
    one rule: ints and floats (not bools) within float64 range."""

    @pytest.mark.parametrize("value, verdict", [
        (True, "is not a flat list of numbers"), ("1", "is not a flat list of numbers"),
        (None, "is not a flat list of numbers"), ([1], "is not a flat list of numbers"),
        ({}, "is not a flat list of numbers"), (2**70, "ok"),
        (10**400, "holds a number beyond float64 range"),
    ], ids=["true", "str_1", "null", "nested_1", "object", "2**70", "10**400"])
    def test_split_and_checkpoint_agree(self, tiny_bundle, tmp_path, value, verdict):
        split = tmp_path / "split.jsonl"
        save_split(split, tiny_bundle.test)
        lines = split.read_text().splitlines()
        rec = json.loads(lines[0])
        rec["x_raw"][0] = value
        split.write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")

        ckpt = tmp_path / "checkpoint.jsonl"
        cfg = EncoderConfig(d_in_visual=4, d_in_text=4, n_classes=3, d_hidden=4, d_embed=2)
        save_checkpoint(ckpt, cfg, init_params(cfg))
        lines = ckpt.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["data"][0] = value
        ckpt.write_text("\n".join([lines[0], json.dumps(rec)] + lines[2:]) + "\n")

        assert _reader_verdict(load_split, split, "x_raw") == verdict
        assert _reader_verdict(load_checkpoint, ckpt, "data") == verdict


class TestSerialization:
    def test_round_trip_is_exact(self, tiny_bundle, tmp_path):
        files = save_dataset(tmp_path, tiny_bundle)
        assert sorted(files) == ["meta.json", "test.jsonl", "train.jsonl"]
        loaded = load_dataset(tmp_path)
        assert loaded.meta.config == tiny_bundle.meta.config
        assert loaded.meta.mix_seed == tiny_bundle.meta.mix_seed
        for orig, back in ((tiny_bundle.train, loaded.train),
                           (tiny_bundle.test, loaded.test)):
            assert len(orig) == len(back)
            for m in ("V", "R"):
                a, b = orig.rows[m], back.rows[m]
                for column in ("sample_id", "identity", "view", "x_raw", "l_raw"):
                    assert np.array_equal(getattr(a, column), getattr(b, column))

    def test_round_trip_mixing_matrices_identical(self, tiny_bundle, tmp_path):
        save_dataset(tmp_path, tiny_bundle)
        loaded = load_dataset(tmp_path)
        for a, b in zip(tiny_bundle.meta.mixing_matrices(),
                        loaded.meta.mixing_matrices()):
            assert np.array_equal(a, b)

    def test_missing_directory_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope")

    def test_default_dataset_bytes_are_pinned(self, tmp_path):
        # a change to the generator's draws or to the file format shows here
        save_dataset(tmp_path, generate_dataset(GeneratorConfig(seed=0)))
        pinned = {
            "train.jsonl": "8843a3d77dc2479a13011afaeb94db53bff88ce78ff6ceafde3186ea61c31af6",
            "test.jsonl": "193b8176118dafbe93ca607d0ed5aad1721f85e8016b081d304ee9d3801c1e78",
            "meta.json": "38dcc2d994478ea784559adfa11019a21314d70508816e21693f153b2af45bb8",
        }
        for name, digest in pinned.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    def test_shuffled_lines_load_to_the_same_rows_and_reports(self, tiny_bundle, tmp_path):
        save_dataset(tmp_path / "a", tiny_bundle)
        save_dataset(tmp_path / "b", tiny_bundle)
        for name in ("train.jsonl", "test.jsonl"):
            lines = (tmp_path / "b" / name).read_text().splitlines()
            random.Random(0).shuffle(lines)
            (tmp_path / "b" / name).write_text("\n".join(lines) + "\n")
        a, b = load_dataset(tmp_path / "a"), load_dataset(tmp_path / "b")
        for split_a, split_b in ((a.train, b.train), (a.test, b.test)):
            for m in ("V", "R"):
                for column in ("sample_id", "identity", "view", "x_raw", "l_raw"):
                    assert np.array_equal(getattr(split_a.rows[m], column),
                                          getattr(split_b.rows[m], column))
        store = init_params(EncoderConfig(d_in_visual=10, d_in_text=10, n_classes=4, seed=0))
        protocols = [Protocol(shots="single", seed=2), Protocol(shots="multi")]
        for ra, rb in zip(evaluate(store, a.test, protocols, meta=a.meta),
                          evaluate(store, b.test, protocols, meta=b.meta)):
            assert np.array_equal(ra.cmc, rb.cmc)
            assert (ra.map, ra.n_gallery, ra.diagnostics) == (rb.map, rb.n_gallery, rb.diagnostics)

    def test_bad_json_names_the_line(self, tiny_bundle, tmp_path):
        save_dataset(tmp_path, tiny_bundle)
        lines = (tmp_path / "test.jsonl").read_text().splitlines()
        lines[1] = lines[1][:-1]
        (tmp_path / "test.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"test\.jsonl:2: Expecting"):
            load_dataset(tmp_path)

    def test_load_peak_memory_stays_below_three_times_the_features(self, tmp_path):
        # the feature matrices and Split's per-modality copies of them are
        # 2x; a list of per-record arrays, then np.stack, took about 4.3x
        split = generate_dataset(GeneratorConfig(n_identities_train=2,
                                                 n_identities_test=64)).test
        save_split(tmp_path / "test.jsonl", split)
        features = sum(r.x_raw.nbytes + r.l_raw.nbytes for r in split.rows.values())
        tracemalloc.start()
        try:
            loaded = load_split(tmp_path / "test.jsonl")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(loaded) == len(split)
        assert peak < 3 * features

    def test_rewrites_are_byte_identical(self, tiny_bundle, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        a_dir.mkdir(), b_dir.mkdir()
        save_dataset(a_dir, tiny_bundle)
        save_dataset(b_dir, generate_dataset(dataclasses.replace(TINY)))
        for name in ("train.jsonl", "test.jsonl", "meta.json"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


# ------------------------------------------------------------ batch sampler

def sampler_records(seed: int, pool: tuple[int, int]) -> list[tuple]:
    """Six identities with pool[0]..pool[1] rows per modality, as Split's
    six column values per row, shuffled, with shuffled sample_ids."""
    rng = derive_rng(seed, "sampler-records")
    rows = [(y, m) for y in (3, 7, 10, 11, 20, 42) for m in ("V", "R")
            for _ in range(int(rng.integers(pool[0], pool[1] + 1)))]
    sample_ids = rng.permutation(len(rows)) + 100
    records = [(int(sid), y, m, view, rng.standard_normal(5), rng.standard_normal(5))
               for view, (sid, (y, m)) in enumerate(zip(sample_ids, rows))]
    return [records[i] for i in rng.permutation(len(records))]


class TestSampleBatch:
    def test_balanced_shape_and_labels(self, tiny_bundle):
        batch = sample_batch(tiny_bundle.train, n_ids=3, k_per_modality=2,
                             rng_seed=0)
        assert len(batch.labels) == 6
        assert batch.x_v.shape == batch.x_r.shape == (6, TINY.d_feature)
        counts = np.bincount(batch.labels)
        assert sorted(counts[counts > 0]) == [2, 2, 2]
        # paired rows share an identity across modalities by construction
        assert len(set(batch.identities)) == 3

    def test_default_protocol_shape(self, default_bundle):
        batch = sample_batch(default_bundle.train, n_ids=8, k_per_modality=4,
                             rng_seed=0)
        assert len(batch.labels) == 32
        assert len(set(batch.labels)) == 8
        assert np.bincount(batch.labels).max() == 4

    def test_degenerate_single_row_batch(self, tiny_bundle):
        batch = sample_batch(tiny_bundle.train, n_ids=1, k_per_modality=1,
                             rng_seed=2)
        assert len(batch.labels) == 1
        assert batch.labels.shape == batch.identities.shape == (1,)

    def test_deterministic_given_seed(self, tiny_bundle):
        a = sample_batch(tiny_bundle.train, 3, 2, rng_seed=5)
        b = sample_batch(tiny_bundle.train, 3, 2, rng_seed=5)
        c = sample_batch(tiny_bundle.train, 3, 2, rng_seed=6)
        assert np.array_equal(a.x_v, b.x_v)
        assert np.array_equal(a.sample_ids_r, b.sample_ids_r)
        assert not np.array_equal(a.sample_ids_v, c.sample_ids_v)

    def test_too_many_identities_rejected(self, tiny_bundle):
        with pytest.raises(ProtocolError):
            sample_batch(tiny_bundle.train, n_ids=5, k_per_modality=1, rng_seed=0)

    def test_oversized_k_names_the_identity(self, tiny_bundle):
        with pytest.raises(ProtocolError, match="identity"):
            sample_batch(tiny_bundle.train, n_ids=2, k_per_modality=3, rng_seed=0)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n_ids, k, pool", [(1, 1, (1, 3)), (3, 2, (2, 4)),
                                                 (6, 3, (3, 5)), (4, 4, (4, 4))])
    def test_equals_the_per_row_reference(self, seed, n_ids, k, pool):
        # rows in a random order, sample_ids not in identity order, pools of
        # `pool` rows per identity and modality (k equal to it in the last shape)
        records = sampler_records(seed, pool)
        split = Split(*zip(*records))
        batch = sample_batch(split, n_ids, k, rng_seed=seed)
        expected = oracles.sample_batch_oracle(records, n_ids, k, derive_rng(seed, "batch"))
        for field in dataclasses.fields(Batch):
            got = getattr(batch, field.name)
            assert got.dtype == expected[field.name].dtype
            assert np.array_equal(got, expected[field.name]), field.name

    @pytest.mark.parametrize("n_ids, k, match", [(7, 1, "identities"), (2, 6, "identity")])
    def test_both_refusals_match_the_per_row_reference(self, n_ids, k, match):
        records = sampler_records(0, (3, 5))
        with pytest.raises(ProtocolError, match=match):
            sample_batch(Split(*zip(*records)), n_ids, k, rng_seed=0)
        with pytest.raises(LookupError):
            oracles.sample_batch_oracle(records, n_ids, k, derive_rng(0, "batch"))

    def test_repeated_sample_id_rejected(self, tiny_bundle):
        rows = tiny_bundle.train.rows["V"]
        sample_id = rows.sample_id[:3].copy()
        sample_id[2] = sample_id[0]
        with pytest.raises(ValueError, match=f"sample_id {sample_id[0]} repeats"):
            Split(sample_id, rows.identity[:3], ["V", "R", "R"], rows.view[:3],
                  rows.x_raw[:3], rows.l_raw[:3])

    def test_unknown_modality_tag_rejected(self, tiny_bundle):
        rows = tiny_bundle.train.rows["V"]
        with pytest.raises(ValueError):
            Split(rows.sample_id[:1], rows.identity[:1], ["X"], rows.view[:1],
                  rows.x_raw[:1], rows.l_raw[:1])
