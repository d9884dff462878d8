"""Flat dotted-key configuration: the table derived from the dataclass
defaults, type-driven coercion, and the section builders."""

from __future__ import annotations

import pytest

from xmml.config import (DEFAULTS, ConfigError, generator_config, loss_weights,
                         protocol, resolve, train_config)
from xmml.evaluator import Protocol
from xmml.losses import LossWeights
from xmml.synthdata import GeneratorConfig
from xmml.trainer import TrainConfig


class TestDefaults:
    def test_defaults_round_trip_to_the_dataclasses(self):
        cfg = resolve()
        assert generator_config(cfg) == GeneratorConfig()
        assert loss_weights(cfg) == LossWeights()
        assert train_config(cfg) == TrainConfig()
        assert protocol(cfg) == Protocol()

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
        cfg = resolve(overrides={"train.decay_epochs": "5,9"})
        assert cfg["train.decay_epochs"] == [5, 9]
        assert train_config(cfg).decay_epochs == (5, 9)


class TestCoercion:
    @pytest.mark.parametrize("raw, want", [("none", None), ("null", None),
                                           (None, None), ("0.3", 0.3), (0.3, 0.3)])
    def test_nullable_float(self, raw, want):
        cfg = resolve(overrides={"gen.sigma_text": raw})
        assert cfg["gen.sigma_text"] == want
        assert generator_config(cfg).sigma_text == want

    def test_scalar_types(self):
        cfg = resolve(overrides={"train.epochs": "7", "weights.tau": "0.5",
                                 "weights.distill_text": "off",
                                 "eval.query_modality": "V",
                                 "eval.gallery_modality": "R"})
        assert cfg["train.epochs"] == 7 and isinstance(cfg["train.epochs"], int)
        assert cfg["weights.tau"] == 0.5
        assert cfg["weights.distill_text"] is False
        assert protocol(cfg).query_modality == "V"

    @pytest.mark.parametrize("key, raw", [("train.epochs", "2.5"), ("train.epochs", "none"),
                                          ("weights.distill_text", "maybe"),
                                          ("weights.tau", "fast"),
                                          # strict JSON artifacts cannot echo these
                                          ("weights.tau", "inf"), ("weights.lambda1", "nan"),
                                          ("gen.sigma_text", "-inf"), ("train.epochs", "inf")])
    def test_bad_values_rejected(self, key, raw):
        with pytest.raises(ConfigError, match=key):
            resolve(overrides={key: raw})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            resolve(file_cfg={"train.bogus": 1})
