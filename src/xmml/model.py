"""Two-stem shared-trunk encoders, a shared text encoder, and a classifier.

Each modality gets its own affine stem; both stems feed one shared trunk
(affine, relu, affine), so modality-specific correction happens early and
the embedding geometry is shared. Text features from both modalities pass
through a single text encoder, and one affine classifier scores all
embeddings. Forward passes return caches; backward passes accumulate
gradients into the ParamStore.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .numerics import DimensionError, ParamStore, derive_rng

STEM_BY_MODALITY = {"V": "stem_v", "R": "stem_r"}

_VISUAL_LAYERS = ("trunk1", "trunk2")
_TEXT_LAYERS = ("text1", "text2")


@dataclass
class EncoderConfig:
    d_in_visual: int
    d_in_text: int
    n_classes: int
    d_hidden: int = 64
    d_embed: int = 32
    init_scale: float = 0.1
    seed: int = 0

    def validate(self) -> None:
        for name in ("d_in_visual", "d_in_text", "d_hidden", "d_embed"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.init_scale <= 0:
            raise ValueError(f"init_scale must be > 0, got {self.init_scale}")


def init_params(cfg: EncoderConfig) -> ParamStore:
    """Uniform(-init_scale, init_scale) init, fixed draw order, seeded."""
    cfg.validate()
    rng = derive_rng(cfg.seed, "encoder-init")
    store = ParamStore()

    def add(name, shape):
        store.add(name, rng.uniform(-cfg.init_scale, cfg.init_scale, size=shape))

    add("stem_v.w", (cfg.d_hidden, cfg.d_in_visual))
    add("stem_v.b", (cfg.d_hidden,))
    add("stem_r.w", (cfg.d_hidden, cfg.d_in_visual))
    add("stem_r.b", (cfg.d_hidden,))
    add("trunk1.w", (cfg.d_hidden, cfg.d_hidden))
    add("trunk1.b", (cfg.d_hidden,))
    add("trunk2.w", (cfg.d_embed, cfg.d_hidden))
    add("trunk2.b", (cfg.d_embed,))
    add("text1.w", (cfg.d_hidden, cfg.d_in_text))
    add("text1.b", (cfg.d_hidden,))
    add("text2.w", (cfg.d_embed, cfg.d_hidden))
    add("text2.b", (cfg.d_embed,))
    add("cls.w", (cfg.n_classes, cfg.d_embed))
    add("cls.b", (cfg.n_classes,))
    return store


def param_groups() -> dict[str, list[str]]:
    """Optimizer groups; the classifier is its own group at the visual rate."""
    return {
        "visual": ["stem_v.w", "stem_v.b", "stem_r.w", "stem_r.b",
                   "trunk1.w", "trunk1.b", "trunk2.w", "trunk2.b"],
        "classifier": ["cls.w", "cls.b"],
        "text": ["text1.w", "text1.b", "text2.w", "text2.b"],
    }


@dataclass
class MlpCache:
    layers: tuple[str, ...]
    inputs: list[np.ndarray]   # input to each affine layer
    pre: list[np.ndarray]      # pre-activation output of each affine layer
    squeeze: bool


def _as_batch(x, d_expected: int, what: str):
    arr = np.asarray(x, dtype=np.float64)
    squeeze = arr.ndim == 1
    if squeeze:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise DimensionError(f"{what} must be 1-D or 2-D, got shape {arr.shape}")
    if arr.shape[1] != d_expected:
        raise DimensionError(
            f"{what} has dim {arr.shape[1]}, encoder expects {d_expected}")
    return arr, squeeze


def _mlp_forward(store: ParamStore, layers: tuple[str, ...], x: np.ndarray,
                 squeeze: bool):
    # relu between layers, none after the last
    inputs, pre = [], []
    h = x
    for i, name in enumerate(layers):
        inputs.append(h)
        a = h @ store.value(f"{name}.w").T + store.value(f"{name}.b")
        pre.append(a)
        h = np.maximum(a, 0.0) if i < len(layers) - 1 else a
    return h, MlpCache(layers=layers, inputs=inputs, pre=pre, squeeze=squeeze)


def _mlp_backward(store: ParamStore, cache: MlpCache, d_out: np.ndarray) -> np.ndarray:
    g = np.asarray(d_out, dtype=np.float64)
    if cache.squeeze and g.ndim == 1:
        g = g[None, :]
    for i in range(len(cache.layers) - 1, -1, -1):
        name = cache.layers[i]
        x = cache.inputs[i]
        store.grad(f"{name}.w")[...] += g.T @ x
        store.grad(f"{name}.b")[...] += g.sum(axis=0)
        g = g @ store.value(f"{name}.w")
        if i > 0:
            g = g * (cache.pre[i - 1] > 0)
    return g[0] if cache.squeeze else g


def encode_visual(store: ParamStore, x, modality: str):
    """Embed raw image features of one modality; returns (f, cache)."""
    if modality not in STEM_BY_MODALITY:
        raise ValueError(f"unknown modality tag {modality!r}")
    stem = STEM_BY_MODALITY[modality]
    arr, squeeze = _as_batch(x, store.value(f"{stem}.w").shape[1], "visual input")
    out, cache = _mlp_forward(store, (stem,) + _VISUAL_LAYERS, arr, squeeze)
    return (out[0] if squeeze else out), cache


def encode_visual_backward(store: ParamStore, cache: MlpCache, d_f) -> np.ndarray:
    return _mlp_backward(store, cache, d_f)


def encode_text(store: ParamStore, l):
    """Embed raw text features (shared across modalities); returns (t, cache)."""
    arr, squeeze = _as_batch(l, store.value("text1.w").shape[1], "text input")
    out, cache = _mlp_forward(store, _TEXT_LAYERS, arr, squeeze)
    return (out[0] if squeeze else out), cache


def encode_text_backward(store: ParamStore, cache: MlpCache, d_t) -> np.ndarray:
    return _mlp_backward(store, cache, d_t)


@dataclass
class ClassifierCache:
    f: np.ndarray
    squeeze: bool


def classify(store: ParamStore, f):
    """Identity logits for embeddings; shared head for every branch."""
    arr, squeeze = _as_batch(f, store.value("cls.w").shape[1], "embedding")
    logits = arr @ store.value("cls.w").T + store.value("cls.b")
    return (logits[0] if squeeze else logits), ClassifierCache(f=arr, squeeze=squeeze)


def classify_backward(store: ParamStore, cache: ClassifierCache, d_logits) -> np.ndarray:
    g = np.asarray(d_logits, dtype=np.float64)
    if cache.squeeze and g.ndim == 1:
        g = g[None, :]
    store.grad("cls.w")[...] += g.T @ cache.f
    store.grad("cls.b")[...] += g.sum(axis=0)
    d_f = g @ store.value("cls.w")
    return d_f[0] if cache.squeeze else d_f


# ------------------------------------------------------------- checkpoints

def save_checkpoint(path: Path | str, cfg: EncoderConfig, store: ParamStore) -> None:
    """JSONL container: a config record, then one record per tensor.

    Tensor data is stored flat in row-major order; float64 repr round-trips
    bit-exactly through JSON.
    """
    path = Path(path)
    with path.open("w") as fh:
        fh.write(json.dumps({"kind": "encoder_config", **asdict(cfg)}) + "\n")
        for name in store.names():
            v = store.value(name)
            rec = {"kind": "tensor", "name": name, "shape": list(v.shape),
                   "data": np.ascontiguousarray(v).reshape(-1).tolist()}
            fh.write(json.dumps(rec) + "\n")


def load_checkpoint(path: Path | str):
    path = Path(path)
    cfg = None
    store = ParamStore()
    with path.open() as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                kind = rec.pop("kind", None)
                if kind == "encoder_config":
                    cfg = EncoderConfig(**rec)
                elif kind == "tensor":
                    arr = np.asarray(rec["data"], dtype=np.float64).reshape(rec["shape"])
                    store.add(rec["name"], arr)
                else:
                    raise ValueError(f"unknown record kind {kind!r}")
            except (KeyError, TypeError, ValueError) as e:
                # bad JSON, missing fields, unknown config keys, duplicate tensors
                raise ValueError(f"{path}:{line_no}: bad record: {e}") from e
    if cfg is None:
        raise ValueError(f"{path}: missing encoder_config record")
    expected = init_params(cfg)
    want = {n: expected.value(n).shape for n in expected.names()}
    got = {n: store.value(n).shape for n in store.names()}
    problems = [f"missing {n}" for n in want if n not in got]
    problems += [f"unexpected {n}" for n in got if n not in want]
    problems += [f"{n} has shape {got[n]}, config wants {want[n]}"
                 for n in want if n in got and got[n] != want[n]]
    if problems:
        raise ValueError(f"{path}: tensors do not match the encoder config: "
                         + "; ".join(problems))
    return cfg, store
