"""Flat dotted-key configuration: the table derived from the dataclass
defaults, type-driven coercion, the sections `resolve` builds, and the field
checks every config dataclass runs when it is built."""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest

from xmml.config import DEFAULTS, ConfigError, coerce, resolve
from xmml.evaluator import Protocol
from xmml.losses import LossWeights
from xmml.model import EncoderConfig
from xmml.synthdata import DatasetMeta, GeneratorConfig
from xmml.trainer import TrainConfig


class TestDefaults:
    def test_defaults_round_trip_to_the_dataclasses(self):
        run = resolve()
        assert run.gen == GeneratorConfig()
        assert run.train.weights == LossWeights()
        assert run.train == TrainConfig()
        assert run.protocols == (Protocol(),)

    def test_sections_and_model_aliases(self):
        prefixes = {k.split(".")[0] for k in DEFAULTS}
        assert prefixes == {"gen", "model", "train", "weights", "eval"}
        assert [k for k in DEFAULTS if k.startswith("model.")] == [
            "model.d_hidden", "model.d_embed", "model.init_scale"]
        assert "train.d_hidden" not in DEFAULTS
        assert "train.weights" not in DEFAULTS
        assert DEFAULTS["eval.k_max"] == 20

    def test_tuple_fields_are_json_lists(self):
        assert DEFAULTS["train.decay_epochs"] == [20, 35]
        run = resolve(overrides={"train.decay_epochs": "5,9"})
        assert run.values["train.decay_epochs"] == [5, 9]
        assert run.train.decay_epochs == (5, 9)


class TestCoercion:
    @pytest.mark.parametrize("raw, want", [("none", None), ("null", None),
                                           (None, None), ("0.3", 0.3), (0.3, 0.3)])
    def test_nullable_float(self, raw, want):
        run = resolve(overrides={"gen.sigma_text": raw})
        assert run.values["gen.sigma_text"] == want
        assert run.gen.sigma_text == want

    def test_scalar_types(self):
        run = resolve(overrides={"train.epochs": "7", "weights.tau": "0.5",
                                 "weights.distill_text": "off",
                                 "eval.query_modality": "V",
                                 "eval.gallery_modality": "R"})
        cfg = run.values
        assert cfg["train.epochs"] == 7 and isinstance(cfg["train.epochs"], int)
        assert cfg["weights.tau"] == 0.5
        assert cfg["weights.distill_text"] is False
        assert run.protocols[0].query_modality == "V"

    @pytest.mark.parametrize("key, raw", [("train.epochs", "2.5"), ("train.epochs", "none"),
                                          ("weights.distill_text", "maybe"),
                                          ("weights.tau", "fast"),
                                          # strict JSON artifacts cannot echo these
                                          ("weights.tau", "inf"), ("weights.lambda1", "nan"),
                                          ("gen.sigma_text", "-inf"), ("train.epochs", "inf"),
                                          # a JSON config file's integer beyond float range
                                          pytest.param("train.epochs", 10**400,
                                                       id="train.epochs-10**400"),
                                          # a seed is one 64-bit word
                                          ("train.seed", -1), ("train.seed", 2**70)])
    def test_bad_values_rejected(self, key, raw):
        with pytest.raises(ConfigError, match=key):
            resolve(overrides={key: raw})

    @pytest.mark.parametrize("raw", [2**53 + 1, 2**64 - 1, 2**70, -1])
    def test_integers_are_exact(self, raw):
        # float() would round the first three; the seed's range is checked
        # when its dataclass is built
        for spelling in (raw, str(raw), f" {raw} "):
            assert coerce("train.seed", spelling) == raw

    @pytest.mark.parametrize("raw, want", [("1e3", 1000), ("3.0", 3), (4.0, 4), (True, 1)])
    def test_other_integer_spellings_read_as_numbers(self, raw, want):
        value = resolve(overrides={"train.epochs": raw}).values["train.epochs"]
        assert value == want and type(value) is int

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            resolve(file_cfg={"train.bogus": 1})


class TestConstruction:
    @pytest.mark.parametrize("cls, required, int_field, field, value, annotation", [
        (GeneratorConfig, {}, "d_id", "sigma_view", "0.5", "float"),
        (EncoderConfig, {"d_in_visual": 6, "d_in_text": 6, "n_classes": 3},
         "d_hidden", "init_scale", "0.1", "float"),
        (TrainConfig, {}, "epochs", "lr_visual", "3e-4", "float"),
        (LossWeights, {}, "n_fuse", "tau", "0.07", "float"),
        # Protocol has no float field: a number in a str field instead
        (Protocol, {}, "k_max", "shots", 1, "str"),
    ], ids=lambda v: v.__name__ if isinstance(v, type) else None)
    def test_fields_checked_when_built_and_frozen(self, cls, required, int_field, field,
                                                  value, annotation):
        with pytest.raises(ValueError, match=f"^{int_field} must be int, got True$"):
            cls(**required, **{int_field: True})
        with pytest.raises(ValueError,
                           match=re.escape(f"{field} must be {annotation}, got {value!r}")):
            cls(**required, **{field: value})
        cfg = cls(**required, **{int_field: np.int64(3)})
        assert getattr(cfg, int_field) == 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, int_field, 4)

    @pytest.mark.parametrize("cls, required, field", [
        (GeneratorConfig, {}, "seed"),
        (DatasetMeta, {"config": GeneratorConfig()}, "mix_seed"),
        (EncoderConfig, {"d_in_visual": 6, "d_in_text": 6, "n_classes": 3}, "seed"),
        (TrainConfig, {}, "seed"),
        (Protocol, {}, "seed"),
    ], ids=lambda v: v.__name__ if isinstance(v, type) else None)
    def test_seeds_are_one_64_bit_word(self, cls, required, field):
        for value in (-1, 2**64, 2**70):
            with pytest.raises(ValueError, match=re.escape(
                    f"{field} must be in [0, 2**64), got {value}")):
                cls(**required, **{field: value})
        assert getattr(cls(**required, **{field: 2**64 - 1}), field) == 2**64 - 1

    @pytest.mark.parametrize("cls, required, field", [
        (GeneratorConfig, {}, "sigma_view"),
        (GeneratorConfig, {}, "sigma_text"),
        (EncoderConfig, {"d_in_visual": 6, "d_in_text": 6, "n_classes": 3}, "init_scale"),
        (TrainConfig, {}, "lr_visual"),
        (LossWeights, {}, "tau"),
        (LossWeights, {}, "lambda1"),
    ], ids=lambda v: v.__name__ if isinstance(v, type) else None)
    def test_float_fields_must_be_finite(self, cls, required, field):
        for value in (float("nan"), float("inf"), np.float64("-inf")):
            with pytest.raises(ValueError, match=f"^{field} must be finite, got "):
                cls(**required, **{field: value})
        # an int beyond float range is a finite number
        assert getattr(cls(**required, **{field: 10**400}), field) == 10**400

    @pytest.mark.parametrize("cls, kwargs, message", [
        (TrainConfig, {"decay_epochs": (20, True)},
         "decay_epochs must be tuple[int, ...], got (20, True)"),
        (TrainConfig, {"decay_epochs": [20, 35]}, "decay_epochs must be tuple[int, ...]"),
        (GeneratorConfig, {"sigma_text": "x"}, "sigma_text must be float | None, got 'x'"),
        (TrainConfig, {"weights": {}}, "weights must be LossWeights, got {}"),
    ])
    def test_compound_annotations(self, cls, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            cls(**kwargs)
