"""Training loop: learning-rate schedule, momentum-SGD updates, divergence
handling, determinism, and the logged loss breakdown."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from conftest import FIXTURES
from xmml.model import init_params
from xmml.losses import LossWeights
from xmml.synthdata import sample_batch
from xmml.trainer import (TrainConfig, TrainState, TrainingDivergedError,
                          load_train_log_records, lr_at, run_training,
                          save_train_log, train_step, with_long_schedule)

TINY_TRAIN = TrainConfig(epochs=2, batches_per_epoch=2, n_ids_per_batch=3,
                         k_per_modality=2, seed=0)


# ---------------------------------------------------------------- schedule

class TestSchedule:
    def test_desk_schedule_decay_points(self):
        cfg = TrainConfig()
        assert lr_at(0, cfg)["visual"] == pytest.approx(3e-4)
        assert lr_at(19, cfg)["visual"] == pytest.approx(3e-4)
        assert lr_at(20, cfg)["visual"] == pytest.approx(3e-5)
        assert lr_at(34, cfg)["visual"] == pytest.approx(3e-5)
        assert lr_at(35, cfg)["visual"] == pytest.approx(3e-6)
        assert lr_at(59, cfg)["visual"] == pytest.approx(3e-6)

    def test_long_schedule_decays_at_40_and_70(self):
        cfg = with_long_schedule(TrainConfig())
        assert cfg.epochs == 120
        assert cfg.decay_epochs == (40, 70)
        assert lr_at(39, cfg)["visual"] == pytest.approx(3e-4)
        assert lr_at(40, cfg)["visual"] == pytest.approx(3e-5)
        assert lr_at(70, cfg)["visual"] == pytest.approx(3e-6)
        assert lr_at(119, cfg)["visual"] == pytest.approx(3e-6)

    def test_classifier_rides_the_visual_rate(self):
        cfg = TrainConfig(lr_visual=1e-2, lr_text=1e-6)
        rates = lr_at(0, cfg)
        assert rates["classifier"] == rates["visual"] == 1e-2
        assert rates["text"] == 1e-6

    def test_text_rate_decays_independently_of_value(self):
        cfg = TrainConfig(lr_text=1e-6)
        assert lr_at(20, cfg)["text"] == pytest.approx(1e-7)

    def test_two_decays_compose(self):
        cfg = TrainConfig(decay_factor=0.5, decay_epochs=(1, 2))
        assert lr_at(2, cfg)["visual"] == pytest.approx(3e-4 * 0.25)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"epochs": 0}, {"lr_visual": -1.0}, {"momentum": 1.0},
        {"decay_factor": 0.0}, {"decay_epochs": (35, 20)},
        {"decay_epochs": (20, 20)},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            dataclasses.replace(TrainConfig(), **kwargs).validate()


# -------------------------------------------------------------- train_step

def _setup(bundle, weights=None, seed=0):
    d = bundle.train.samples[0].x_raw.shape[0]
    from xmml.model import EncoderConfig
    store = init_params(EncoderConfig(
        d_in_visual=d, d_in_text=d, n_classes=bundle.train.n_identities,
        d_hidden=16, d_embed=8, seed=seed))
    state = TrainState.for_store(store)
    batch = sample_batch(bundle.train, 3, 2, rng_seed=seed)
    return store, state, batch, weights or LossWeights()


class TestTrainStep:
    def test_zero_learning_rate_is_a_no_op(self, tiny_bundle):
        store, state, batch, w = _setup(tiny_bundle)
        before = {n: store.value(n).copy() for n in store.names()}
        lrs = {"visual": 0.0, "classifier": 0.0, "text": 0.0}
        train_step(store, batch, w, lrs, fuse_seed=0, state=state)
        for name in store.names():
            assert np.array_equal(store.value(name), before[name])

    def test_classifier_only_descent_on_fixed_batch(self, tiny_bundle):
        w = LossWeights(lambda1=0, lambda2=0, lambda3=0, lambda4=0)
        store, state, batch, _ = _setup(tiny_bundle, w)
        lrs = {"visual": 0.0, "classifier": 0.05, "text": 0.0}
        losses = []
        for _ in range(50):
            breakdown = train_step(store, batch, w, lrs, fuse_seed=0,
                                   state=state, momentum=0.0)
            losses.append(breakdown.identity)
        for a, b in zip(losses, losses[1:]):
            assert b < a

    def test_fuse_seed_irrelevant_without_fused_terms(self, tiny_bundle):
        w = LossWeights(lambda2=0.0, lambda3=0.0)
        store_a, state_a, batch, _ = _setup(tiny_bundle, w)
        store_b, state_b, _, _ = _setup(tiny_bundle, w)
        lrs = {"visual": 1e-3, "classifier": 1e-3, "text": 1e-3}
        bd_a = train_step(store_a, batch, w, lrs, fuse_seed=1, state=state_a)
        bd_b = train_step(store_b, batch, w, lrs, fuse_seed=999, state=state_b)
        assert bd_a.total == bd_b.total
        for name in store_a.names():
            assert np.array_equal(store_a.value(name), store_b.value(name))

    def test_fuse_seed_matters_with_fused_terms(self, default_bundle):
        w = LossWeights()
        d = default_bundle.train.samples[0].x_raw.shape[0]
        from xmml.model import EncoderConfig
        store = init_params(EncoderConfig(
            d_in_visual=d, d_in_text=d,
            n_classes=default_bundle.train.n_identities))
        state = TrainState.for_store(store)
        batch = sample_batch(default_bundle.train, 4, 3, rng_seed=0)
        lrs = {"visual": 0.0, "classifier": 0.0, "text": 0.0}
        bd_a = train_step(store, batch, w, lrs, fuse_seed=1, state=state)
        bd_b = train_step(store, batch, w, lrs, fuse_seed=2, state=state)
        assert bd_a.contrast_fused != bd_b.contrast_fused

    def test_nonfinite_loss_aborts_with_diagnostics(self, tiny_bundle):
        store, state, batch, w = _setup(tiny_bundle)
        # blow up only the output layers: embeddings stay finite (~1e157)
        # but their squared distances overflow, so the loss itself goes inf
        store.value("trunk2.w")[...] *= 1e157
        store.value("text2.w")[...] *= 1e157
        lrs = {"visual": 1e-3, "classifier": 1e-3, "text": 1e-3}
        with pytest.raises(TrainingDivergedError) as exc_info:
            with np.errstate(over="ignore", invalid="ignore"):
                train_step(store, batch, w, lrs, fuse_seed=0, state=state)
        diag = exc_info.value.diagnostics
        assert "breakdown" in diag
        assert "identities" in diag
        assert len(diag["sample_ids_v"]) == batch.n

    def test_nonfinite_embeddings_abort_with_diagnostics(self, tiny_bundle):
        store, state, batch, w = _setup(tiny_bundle)
        # the visual trunk overflows, so f_v and f_r are non-finite before
        # any loss is computed
        store.value("trunk1.w")[...] *= 1e200
        store.value("trunk2.w")[...] *= 1e200
        lrs = {"visual": 1e-3, "classifier": 1e-3, "text": 1e-3}
        with pytest.raises(TrainingDivergedError, match="non-finite embeddings") as exc_info:
            with np.errstate(over="ignore", invalid="ignore"):
                train_step(store, batch, w, lrs, fuse_seed=0, state=state)
        diag = exc_info.value.diagnostics
        assert diag["breakdown"] is None
        assert len(diag["sample_ids_v"]) == batch.n
        assert not np.isfinite(diag["max_abs_embedding"])

    def test_breakdown_recomposition_holds_per_step(self, tiny_bundle):
        store, state, batch, w = _setup(tiny_bundle)
        lrs = {"visual": 1e-3, "classifier": 1e-3, "text": 1e-3}
        for step in range(5):
            b = train_step(store, batch, w, lrs, fuse_seed=step, state=state)
            recomposed = (b.identity + w.lambda1 * b.triplet
                          + w.lambda2 * (b.contrast_single + b.contrast_fused)
                          + w.lambda3 * b.distill + w.lambda4 * b.parity)
            assert abs(b.total - recomposed) < 1e-10


# ------------------------------------------------------------ run_training

class TestRunTraining:
    def test_identical_inputs_give_identical_checkpoints(self, tiny_bundle):
        a = run_training(TINY_TRAIN, tiny_bundle)
        b = run_training(dataclasses.replace(TINY_TRAIN), tiny_bundle)
        for name in a.store.names():
            assert np.array_equal(a.store.value(name), b.store.value(name))
        assert len(a.log.steps) == TINY_TRAIN.epochs * TINY_TRAIN.batches_per_epoch

    def test_seed_changes_the_run(self, tiny_bundle):
        a = run_training(TINY_TRAIN, tiny_bundle)
        b = run_training(dataclasses.replace(TINY_TRAIN, seed=1), tiny_bundle)
        assert any(not np.array_equal(a.store.value(n), b.store.value(n))
                   for n in a.store.names())

    def test_objective_configurations_log_distinct_breakdowns(self, tiny_bundle):
        full = run_training(TINY_TRAIN, tiny_bundle)
        bare_w = LossWeights(lambda2=0, lambda3=0, lambda4=0)
        bare = run_training(dataclasses.replace(TINY_TRAIN, weights=bare_w),
                            tiny_bundle)
        assert full.log.steps[0].breakdown.contrast_single > 0.0
        assert bare.log.steps[0].breakdown.contrast_single == 0.0

    def test_eval_cadence(self, tiny_bundle):
        cfg = dataclasses.replace(TINY_TRAIN, epochs=3, eval_every=2)
        result = run_training(cfg, tiny_bundle)
        assert [e.epoch for e in result.log.evals] == [1, 2]

    def test_zero_rates_leave_parameters_at_init(self, tiny_bundle):
        cfg = dataclasses.replace(TINY_TRAIN, lr_visual=0.0, lr_text=0.0)
        result = run_training(cfg, tiny_bundle)
        fresh = init_params(result.encoder_config)
        for name in fresh.names():
            assert np.array_equal(result.store.value(name), fresh.value(name))


# ------------------------------------------------------------ log round-trip

class TestTrainLogIO:
    def test_round_trip_preserves_records(self, tiny_bundle, tmp_path):
        result = run_training(TINY_TRAIN, tiny_bundle)
        path = tmp_path / "log.jsonl"
        save_train_log(path, result.log)
        records = load_train_log_records(path)
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "run"
        assert kinds.count("step") == len(result.log.steps)
        assert kinds.count("eval") == len(result.log.evals)
        run_rec = records[0]
        assert run_rec["seed"] == TINY_TRAIN.seed
        assert run_rec["config"]["epochs"] == TINY_TRAIN.epochs
        step0 = next(r for r in records if r["kind"] == "step")
        assert step0["total"] == result.log.steps[0].breakdown.total

    def test_reruns_are_byte_identical(self, tiny_bundle, tmp_path):
        a_path, b_path = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_train_log(a_path, run_training(TINY_TRAIN, tiny_bundle).log)
        save_train_log(b_path, run_training(TINY_TRAIN, tiny_bundle).log)
        assert a_path.read_bytes() == b_path.read_bytes()


# --------------------------------------------------------- smoke regression

class TestSmokeRegression:
    def test_first_epoch_matches_reference_run(self, default_bundle):
        ref = json.loads((FIXTURES / "reference_smoke.json").read_text())
        cfg = TrainConfig(epochs=1, eval_every=1, seed=0)
        result = run_training(cfg, default_bundle)
        step0 = result.log.steps[0].breakdown.total
        tail = [s.breakdown.total for s in result.log.steps[-5:]]
        after = sum(tail) / len(tail)
        assert step0 == pytest.approx(ref["step0_total"], rel=0.20)
        assert after == pytest.approx(ref["after_epoch1_total"], rel=0.20)
        assert after < step0
