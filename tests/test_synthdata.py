"""Synthetic bimodal dataset generator: determinism, split structure, the
two planted signals (complementary masks, conflicting modality channels),
serialization round-trips, and the identity-balanced batch sampler."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from xmml.numerics import ProtocolError
from xmml.synthdata import (GeneratorConfig, Split, generate_dataset,
                            load_dataset, sample_batch, save_dataset)

TINY = GeneratorConfig(n_identities_train=4, n_identities_test=3,
                       samples_per_identity_per_modality=2,
                       d_id=6, d_view=2, d_conflict=2, seed=0)


def all_x(split) -> np.ndarray:
    return np.stack([s.x_raw for s in split.samples])


# ------------------------------------------------------------ determinism

class TestDeterminism:
    def test_equal_seeds_give_bit_identical_datasets(self):
        a = generate_dataset(TINY)
        b = generate_dataset(dataclasses.replace(TINY))
        assert np.array_equal(all_x(a.train), all_x(b.train))
        assert np.array_equal(all_x(a.test), all_x(b.test))
        assert np.array_equal(
            np.stack([s.l_raw for s in a.train.samples]),
            np.stack([s.l_raw for s in b.train.samples]))

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
        ids = [s.sample_id for s in
               tiny_bundle.train.samples + tiny_bundle.test.samples]
        assert len(ids) == len(set(ids))

    def test_feature_dimensions(self, tiny_bundle):
        d = TINY.d_id + TINY.d_view + TINY.d_conflict
        for s in tiny_bundle.train.samples[:4]:
            assert s.x_raw.shape == (d,)
            assert s.l_raw.shape == (d,)

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
            bundle = generate_dataset(dataclasses.replace(TINY, seed=seed))
            for split in (bundle.train, bundle.test):
                for y, latents in split.conflict_latents.items():
                    total += 1
                    if np.linalg.norm(latents["V"] - latents["R"]) > 0.5:
                        far += 1
        assert far / total >= 0.95

    def test_mask_union_covers_more_than_single_masks(self):
        # complementary views: an identity's samples jointly reveal more
        # attribute dims than any one sample does on average
        for seed in range(5):
            bundle = generate_dataset(dataclasses.replace(TINY, seed=seed))
            split = bundle.train
            union_cov = []
            single_cov = []
            for y in split.identities:
                masks = [split.masks[s.sample_id]
                         for m in ("V", "R") for s in split.of(y, m)]
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
                xs = [s.x_raw for s in split.of(y, m)]
                for x in xs[1:]:
                    assert np.array_equal(x, xs[0])
            # same identity, different modality: conflict latent and mixing differ
            assert not np.array_equal(split.of(y, "V")[0].x_raw,
                                      split.of(y, "R")[0].x_raw)

    def test_texts_ignore_view_noise(self):
        cfg = dataclasses.replace(TINY, sigma_noise=0.0, sigma_text=0.0,
                                  mask_keep_prob=1.0, sigma_view=5.0)
        bundle = generate_dataset(cfg)
        split = bundle.train
        y = split.identities[0]
        texts_v = [s.l_raw for s in split.of(y, "V")]
        assert np.array_equal(texts_v[0], texts_v[1])      # views collapse
        assert not np.array_equal(split.of(y, "V")[0].l_raw,
                                  split.of(y, "R")[0].l_raw)  # conflict remains

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
        cfg = dataclasses.replace(TINY, **{field: value})
        with pytest.raises(ValueError):
            cfg.validate()


# ----------------------------------------------------------- serialization

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
            for a, b in zip(orig.samples, back.samples):
                assert (a.sample_id, a.identity, a.modality, a.view) == \
                       (b.sample_id, b.identity, b.modality, b.view)
                assert np.array_equal(a.x_raw, b.x_raw)
                assert np.array_equal(a.l_raw, b.l_raw)

    def test_round_trip_mixing_matrices_identical(self, tiny_bundle, tmp_path):
        save_dataset(tmp_path, tiny_bundle)
        loaded = load_dataset(tmp_path)
        for a, b in zip(tiny_bundle.meta.mixing_matrices(),
                        loaded.meta.mixing_matrices()):
            assert np.array_equal(a, b)

    def test_missing_directory_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope")

    def test_rewrites_are_byte_identical(self, tiny_bundle, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        a_dir.mkdir(), b_dir.mkdir()
        save_dataset(a_dir, tiny_bundle)
        save_dataset(b_dir, generate_dataset(dataclasses.replace(TINY)))
        for name in ("train.jsonl", "test.jsonl", "meta.json"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


# ------------------------------------------------------------ batch sampler

class TestSampleBatch:
    def test_balanced_shape_and_labels(self, tiny_bundle):
        batch = sample_batch(tiny_bundle.train, n_ids=3, k_per_modality=2,
                             rng_seed=0)
        assert batch.n == 6
        assert batch.x_v.shape == batch.x_r.shape == (6, TINY.d_feature)
        counts = np.bincount(batch.labels)
        assert sorted(counts[counts > 0]) == [2, 2, 2]
        # paired rows share an identity across modalities by construction
        assert len(set(batch.identities)) == 3

    def test_default_protocol_shape(self, default_bundle):
        batch = sample_batch(default_bundle.train, n_ids=8, k_per_modality=4,
                             rng_seed=0)
        assert batch.n == 32
        assert len(set(batch.labels)) == 8
        assert np.bincount(batch.labels).max() == 4

    def test_degenerate_single_row_batch(self, tiny_bundle):
        batch = sample_batch(tiny_bundle.train, n_ids=1, k_per_modality=1,
                             rng_seed=2)
        assert batch.n == 1
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

    def test_unknown_modality_tag_rejected(self, tiny_bundle):
        s = dataclasses.replace(tiny_bundle.train.samples[0], modality="X")
        with pytest.raises(ValueError):
            Split([s])
