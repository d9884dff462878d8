"""Flat dotted-key configuration: defaults, file overrides, flag overrides.

Config files are JSON objects whose keys are dotted paths
(e.g. {"train.epochs": 60, "weights.lambda2": 0.2}); any key can also be
set on the command line as --train.epochs 60. The keys and their defaults
are the fields of GeneratorConfig (gen.*), TrainConfig (train.*, with its
encoder sizes under model.*), LossWeights (weights.*) and Protocol (eval.*).
Values are coerced to the annotated type of their field.
"""

from __future__ import annotations

import json
import math
import types
from dataclasses import fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .evaluator import Protocol
from .losses import LossWeights
from .synthdata import GeneratorConfig
from .trainer import TrainConfig


class ConfigError(ValueError):
    pass


_MODEL_FIELDS = ("d_hidden", "d_embed", "init_scale")


def _names(cls, exclude=()) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.name not in exclude)


# (prefix, dataclass, the dataclass fields under that prefix)
_SECTIONS = (
    ("gen", GeneratorConfig, _names(GeneratorConfig)),
    ("model", TrainConfig, _MODEL_FIELDS),
    ("train", TrainConfig, _names(TrainConfig, _MODEL_FIELDS + ("weights",))),
    ("weights", LossWeights, _names(LossWeights)),
    ("eval", Protocol, _names(Protocol)),
)


def _derive_table() -> tuple[dict[str, object], dict[str, object]]:
    defaults: dict[str, object] = {}
    annotations: dict[str, object] = {}
    for prefix, cls, names in _SECTIONS:
        hints = get_type_hints(cls)
        default_of = {f.name: f.default for f in fields(cls)}
        for name in names:
            value = default_of[name]
            # the table holds what a JSON config file holds: lists, not tuples
            defaults[f"{prefix}.{name}"] = list(value) if isinstance(value, tuple) else value
            annotations[f"{prefix}.{name}"] = hints[name]
    return defaults, annotations


DEFAULTS, _TYPES = _derive_table()

# --long-schedule: 120 epochs, rate drops at epochs 40 and 70
LONG_SCHEDULE = {"train.epochs": 120, "train.decay_epochs": [40, 70]}


def _convert(raw, typ) -> object:
    if get_origin(typ) is types.UnionType:   # `T | None`
        if raw is None or (isinstance(raw, str) and raw.lower() in ("none", "null")):
            return None
        (typ,) = [a for a in get_args(typ) if a is not type(None)]
    if typ is bool:
        if isinstance(raw, bool):
            return raw
        if str(raw).lower() in ("1", "true", "yes", "on"):
            return True
        if str(raw).lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if typ in (int, float):
        v = float(raw)
        # the manifest and train log echo the config as strict JSON
        if not math.isfinite(v):
            raise ValueError(f"not a finite number: {raw!r}")
        if typ is float:
            return v
        if isinstance(raw, (int, str)):
            try:
                return int(raw)   # exact, where v is rounded beyond 2**53
            except ValueError:
                pass              # "1e3" or "3.0"
        if v != int(v):
            raise ValueError(f"not an integer: {raw!r}")
        return int(v)
    if get_origin(typ) is tuple:
        if not isinstance(raw, (list, tuple)):
            raw = [x for x in str(raw).split(",") if x.strip()]
        return [_convert(x, get_args(typ)[0]) for x in raw]
    if typ is str and raw is not None:
        return str(raw)
    raise ValueError(f"not a {getattr(typ, '__name__', typ)}: {raw!r}")


def coerce(key: str, raw) -> object:
    """Coerce a raw (possibly string) value to the annotated type of the
    field behind config key `key`."""
    try:
        return _convert(raw, _TYPES[key])
    except (TypeError, ValueError, OverflowError) as e:   # an int beyond float range
        raise ConfigError(f"bad value for {key}: {e}") from e


def load_config_file(path: Path | str) -> dict[str, object]:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        data = json.loads(path.read_text())
    except ValueError as e:   # a JSONDecodeError or UnicodeDecodeError
        raise ConfigError(f"{path}: invalid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a flat JSON object")
    return data


def resolve(file_cfg: dict | None = None, overrides: dict | None = None) -> dict[str, object]:
    """DEFAULTS <- config file <- command-line overrides, with validation."""
    cfg = dict(DEFAULTS)
    for source, name in ((file_cfg, "config file"), (overrides, "flag")):
        if not source:
            continue
        unknown = sorted(k for k in source if k not in DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown {name} key(s): {', '.join(unknown)}")
        for k, v in source.items():
            cfg[k] = coerce(k, v)
    return cfg


def parse_override_args(rest: list[str]) -> dict[str, object]:
    """Turn leftover CLI args of the form --dotted.key value into a dict."""
    overrides: dict[str, object] = {}
    i = 0
    while i < len(rest):
        arg = rest[i]
        if not arg.startswith("--"):
            raise ConfigError(f"unexpected argument {arg!r}")
        key = arg[2:]
        if "=" in key:
            key, value = key.split("=", 1)
        else:
            if i + 1 >= len(rest):
                raise ConfigError(f"flag --{key} is missing a value")
            value = rest[i + 1]
            i += 1
        if key not in DEFAULTS:
            raise ConfigError(f"unknown flag --{key}")
        overrides[key] = value
        i += 1
    return overrides


def section(cfg: dict[str, object], prefix: str) -> dict[str, object]:
    """The keys under `prefix`, as dataclass keyword arguments."""
    plen = len(prefix) + 1
    return {k[plen:]: tuple(v) if isinstance(v, list) else v
            for k, v in cfg.items() if k.startswith(prefix + ".")}


def generator_config(cfg: dict[str, object]) -> GeneratorConfig:
    return GeneratorConfig(**section(cfg, "gen"))


def loss_weights(cfg: dict[str, object]) -> LossWeights:
    return LossWeights(**section(cfg, "weights"))


def train_config(cfg: dict[str, object]) -> TrainConfig:
    return TrainConfig(weights=loss_weights(cfg), **section(cfg, "model"),
                       **section(cfg, "train"))


def protocol(cfg: dict[str, object]) -> Protocol:
    return Protocol(**section(cfg, "eval"))
