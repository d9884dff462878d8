"""Flat dotted-key configuration: defaults, file overrides, flag overrides.

Config files are JSON objects whose keys are dotted paths
(e.g. {"train.epochs": 60, "weights.lambda2": 0.2}); any key can also be
set on the command line as --train.epochs 60. The keys and their defaults
are the fields of GeneratorConfig (gen.*), TrainConfig (train.*, with its
encoder sizes under model.*), LossWeights (weights.*) and Protocol (eval.*).
Values are coerced to the annotated type of their field, and `resolve`
builds every section, so each value is checked by its dataclass before any
command does work, and a bad one is reported under its dotted key.
"""

from __future__ import annotations

import json
import types
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .evaluator import Protocol
from .losses import LossWeights
from .synthdata import GeneratorConfig
from .trainer import TrainConfig


class ConfigError(ValueError):
    pass


# the section dataclasses and their key prefixes; TrainConfig's weights are
# the LossWeights section, and its encoder sizes are keyed model.*
_PREFIXES = {GeneratorConfig: "gen", TrainConfig: "train", LossWeights: "weights",
             Protocol: "eval"}
_MODEL_FIELDS = ("d_hidden", "d_embed", "init_scale")


def _key(cls, name: str) -> str:
    return f"{'model' if name in _MODEL_FIELDS else _PREFIXES[cls]}.{name}"


_FIELDS = {cls: [f for f in fields(cls) if f.name != "weights"] for cls in _PREFIXES}
# the table holds what a JSON config file holds: lists, not tuples
DEFAULTS = {_key(cls, f.name): list(f.default) if isinstance(f.default, tuple) else f.default
            for cls, fs in _FIELDS.items() for f in fs}
_TYPES = {_key(cls, name): hint for cls in _PREFIXES
          for name, hint in get_type_hints(cls).items() if name != "weights"}

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
        v = float(raw)   # an OverflowError for an int beyond float range
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


@dataclass(frozen=True)
class Settings:
    """A command's checked configuration: the resolved dotted-key values,
    which the manifest echoes, and the dataclasses built from them."""

    values: dict[str, object]
    gen: GeneratorConfig
    train: TrainConfig                # with its LossWeights and model.* sizes
    protocols: tuple[Protocol, ...]   # eval.shots "both": single, then multi


def _built(cls, values: dict[str, object], **kwargs):
    """cls built from its keys in `values`, then `kwargs`. A config
    dataclass's ValueError starts with the field at fault; it becomes a
    ConfigError naming that field's dotted key."""
    args = {f.name: values[_key(cls, f.name)] for f in _FIELDS[cls]}
    try:
        return cls(**{k: tuple(v) if isinstance(v, list) else v
                      for k, v in {**args, **kwargs}.items()})
    except ValueError as e:
        name = str(e).split(" ", 1)[0]
        raise ConfigError(f"bad value for {_key(cls, name) if name in args else _PREFIXES[cls]}"
                          f": {e}") from e


def resolve(file_cfg: dict | None = None, overrides: dict | None = None,
            shots_both: bool = True) -> Settings:
    """DEFAULTS <- config file <- overrides, coerced, then every section
    built. With `shots_both`, eval.shots "both" builds the single-shot and
    the multi-shot protocol; without, it is a bad value."""
    values = dict(DEFAULTS)
    for source, name in ((file_cfg, "config file"), (overrides, "flag")):
        if not source:
            continue
        unknown = sorted(k for k in source if k not in DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown {name} key(s): {', '.join(unknown)}")
        for k, v in source.items():
            values[k] = coerce(k, v)
    shots = values["eval.shots"]
    modes = ("single", "multi") if shots_both and shots == "both" else (shots,)
    return Settings(values, _built(GeneratorConfig, values),
                    _built(TrainConfig, values, weights=_built(LossWeights, values)),
                    tuple(_built(Protocol, values, shots=s) for s in modes))


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
