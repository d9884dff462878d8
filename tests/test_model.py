"""Encoder suite: modality stems with a shared trunk, the shared text
encoder and classifier, checkpoint round-trips, and gradient plumbing."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from xmml.model import (EncoderConfig, classify, classify_backward,
                        encode_text, encode_text_backward, encode_visual,
                        encode_visual_backward, init_params, load_checkpoint,
                        param_groups, save_checkpoint)
from xmml.numerics import DimensionError, finite_difference_check

CFG = EncoderConfig(d_in_visual=6, d_in_text=6, n_classes=3,
                    d_hidden=8, d_embed=4, init_scale=0.1, seed=0)


def fresh_store():
    return init_params(CFG)


class TestInitialization:
    def test_deterministic(self):
        a, b = fresh_store(), fresh_store()
        for name in a.names():
            assert np.array_equal(a.value(name), b.value(name))

    def test_seed_changes_values(self):
        a = fresh_store()
        b = init_params(EncoderConfig(**{**CFG.__dict__, "seed": 1}))
        assert not np.array_equal(a.value("stem_v.w"), b.value("stem_v.w"))

    def test_init_scale_bounds(self):
        store = fresh_store()
        for name in store.names():
            assert np.abs(store.value(name)).max() <= CFG.init_scale

    def test_param_groups_partition_all_parameters(self):
        store = fresh_store()
        groups = param_groups()
        listed = [n for names in groups.values() for n in names]
        assert sorted(listed) == sorted(store.names())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EncoderConfig(d_in_visual=0, d_in_text=4, n_classes=3).validate()
        with pytest.raises(ValueError):
            EncoderConfig(d_in_visual=4, d_in_text=4, n_classes=1).validate()


class TestForward:
    def test_zero_weights_give_zero_embedding(self):
        store = fresh_store()
        for name in store.names():
            store.value(name)[...] = 0.0
        f, _ = encode_visual(store, np.ones(6), "V")
        t, _ = encode_text(store, np.ones(6))
        assert np.abs(f).max() == 0.0
        assert np.abs(t).max() == 0.0

    def test_forced_equal_stems_collapse_modalities(self):
        store = fresh_store()
        store.value("stem_r.w")[...] = store.value("stem_v.w")
        store.value("stem_r.b")[...] = store.value("stem_v.b")
        x = np.random.default_rng(0).standard_normal(6)
        f_v, _ = encode_visual(store, x, "V")
        f_r, _ = encode_visual(store, x, "R")
        assert np.array_equal(f_v, f_r)

    def test_stems_independent(self):
        store = fresh_store()
        x = np.random.default_rng(1).standard_normal(6)
        f_r_before, _ = encode_visual(store, x, "R")
        store.value("stem_v.w")[...] += 0.5
        f_r_after, _ = encode_visual(store, x, "R")
        f_v_ref = init_params(CFG)
        f_v_before, _ = encode_visual(f_v_ref, x, "V")
        f_v_after, _ = encode_visual(store, x, "V")
        assert np.array_equal(f_r_before, f_r_after)
        assert not np.array_equal(f_v_before, f_v_after)

    def test_trunk_shared_between_modalities(self):
        store = fresh_store()
        x = np.random.default_rng(2).standard_normal(6)
        f_r_before, _ = encode_visual(store, x, "R")
        store.value("trunk2.w")[...] *= 2.0
        f_r_after, _ = encode_visual(store, x, "R")
        assert not np.array_equal(f_r_before, f_r_after)

    def test_text_encoder_has_no_modality_branch(self):
        store = fresh_store()
        l = np.random.default_rng(3).standard_normal(6)
        a, _ = encode_text(store, l)
        b, _ = encode_text(store, l.copy())
        assert np.array_equal(a, b)

    def test_batch_and_single_row_agree(self):
        store = fresh_store()
        x = np.random.default_rng(4).standard_normal((3, 6))
        batch, _ = encode_visual(store, x, "V")
        for i in range(3):
            row, _ = encode_visual(store, x[i], "V")
            assert np.allclose(batch[i], row, atol=1e-12)

    def test_dimension_mismatch_names_dims(self):
        store = fresh_store()
        with pytest.raises(DimensionError, match="6"):
            encode_visual(store, np.ones(5), "V")
        with pytest.raises(DimensionError):
            encode_text(store, np.ones(7))

    def test_unknown_modality_rejected(self):
        with pytest.raises(ValueError):
            encode_visual(fresh_store(), np.ones(6), "X")


class TestClassifier:
    def test_matches_affine_recomputation(self):
        store = fresh_store()
        f = np.random.default_rng(5).standard_normal((2, 4))
        logits, _ = classify(store, f)
        want = f @ store.value("cls.w").T + store.value("cls.b")
        assert np.allclose(logits, want, atol=1e-12)

    def test_one_hot_rows_select_their_class(self):
        store = fresh_store()
        store.value("cls.w")[...] = np.eye(3, 4)
        store.value("cls.b")[...] = 0.0
        logits, _ = classify(store, np.eye(4)[:3])
        assert (logits.argmax(axis=1) == np.arange(3)).all()

    def test_zero_classifier_gives_uniform_logits(self):
        store = fresh_store()
        store.value("cls.w")[...] = 0.0
        store.value("cls.b")[...] = 0.0
        logits, _ = classify(store, np.ones((1, 4)))
        assert np.abs(logits).max() == 0.0


class TestGradients:
    def test_embedding_norm_gradient_passes_finite_difference(self):
        x = np.random.default_rng(6).standard_normal((2, 6))

        def loss_fn(store):
            f, cache = encode_visual(store, x, "V")
            store.zero_grads()
            encode_visual_backward(store, cache, 2.0 * f)
            return float((f * f).sum())

        report = finite_difference_check(loss_fn, fresh_store(), h=1e-5, tol=1e-4)
        assert report.ok
        assert report.max_rel_err < 1e-6

    def test_text_gradient_passes_finite_difference(self):
        l = np.random.default_rng(7).standard_normal((2, 6))

        def loss_fn(store):
            t, cache = encode_text(store, l)
            store.zero_grads()
            encode_text_backward(store, cache, 2.0 * t)
            return float((t * t).sum())

        report = finite_difference_check(loss_fn, fresh_store(), h=1e-5, tol=1e-4)
        assert report.ok

    def test_classifier_gradient_passes_finite_difference(self):
        f = np.random.default_rng(8).standard_normal((2, 4))

        def loss_fn(store):
            logits, cache = classify(store, f)
            store.zero_grads()
            classify_backward(store, cache, 2.0 * logits)
            return float((logits * logits).sum())

        report = finite_difference_check(loss_fn, fresh_store(), h=1e-5, tol=1e-4)
        assert report.ok

    def test_backward_input_gradient_matches_finite_difference(self):
        store = fresh_store()
        x0 = np.random.default_rng(9).standard_normal(6)
        f, cache = encode_visual(store, x0, "V")
        store.zero_grads()
        d_x = encode_visual_backward(store, cache, 2.0 * f)
        h = 1e-6
        for i in range(6):
            xp, xm = x0.copy(), x0.copy()
            xp[i] += h
            xm[i] -= h
            fp, _ = encode_visual(store, xp, "V")
            fm, _ = encode_visual(store, xm, "V")
            num = ((fp * fp).sum() - (fm * fm).sum()) / (2 * h)
            assert abs(num - d_x[i]) < 1e-5 * max(1.0, abs(num))


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        store = fresh_store()
        path = tmp_path / "ckpt.jsonl"
        save_checkpoint(path, CFG, store)
        cfg2, store2 = load_checkpoint(path)
        assert cfg2 == CFG
        assert store2.names() == store.names()
        for name in store.names():
            assert np.array_equal(store2.value(name), store.value(name))

    def test_rewrite_is_byte_identical(self, tmp_path):
        store = fresh_store()
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_checkpoint(a, CFG, store)
        save_checkpoint(b, store=store, cfg=CFG)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "none.jsonl")

    @pytest.mark.parametrize("extra", [
        '{"kind": "tensor", "name": "cls.b", "shape": [3], "data": [0, 0, 0]}',
        '{"kind": "encoder_config", "d_in_visual": 6, "d_extra": 1}',
        '{"kind": "tensor", "name": "cls.b"}',
        '{"kind": "bogus"}', '[1]', '{"kind": "tensor",'])
    def test_malformed_record_rejected(self, tmp_path, extra):
        path = tmp_path / "ckpt.jsonl"
        save_checkpoint(path, CFG, fresh_store())
        path.write_text(path.read_text() + extra + "\n")
        with pytest.raises(ValueError, match=":16: bad record"):
            load_checkpoint(path)

    def test_tensor_shapes_checked_against_config(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        save_checkpoint(path, replace(CFG, d_embed=5), fresh_store())
        with pytest.raises(ValueError, match="trunk2.w has shape"):
            load_checkpoint(path)
