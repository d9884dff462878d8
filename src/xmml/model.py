"""Two-stem shared-trunk encoders, a shared text encoder, and a classifier.

Each modality gets its own affine stem; both stems feed one shared trunk
(affine, relu, affine), so modality-specific correction happens early and
the embedding geometry is shared. Text features from both modalities pass
through a single text encoder, and one affine classifier scores all
embeddings. Every input is a 2-D batch, one row per sample. Forward passes
return caches; backward passes accumulate gradients into the ParamStore.
With `need_grad=False` (evaluation and the gradient check's perturbed
passes) a forward pass keeps no per-layer input or pre-activation, returns
None for its cache, and adds the bias and applies relu in place on each
layer's fresh matmul output; its values are equal to the bit to the cached
pass. A forward pass also takes a probe view of the store whose parameter
is a P x shape stack (the gradient check's value-only passes): the outputs
then carry that leading axis, and every matmul keeps its per-slice row
count. `forward`/`backward` are the one batch pass through all branches,
shared by training and the model gradient check; with the objective they
exchange two stacks, embeddings (... x 4 x N x d) and logits (... x 2 x N x C).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .numerics import (DimensionError, ParamStore, check_field_types, derive_rng,
                       float64_vector)

STEM_BY_MODALITY = {"V": "stem_v", "R": "stem_r"}

_VISUAL_LAYERS = ("trunk1", "trunk2")
_TEXT_LAYERS = ("text1", "text2")


@dataclass(frozen=True)
class EncoderConfig:
    d_in_visual: int
    d_in_text: int
    n_classes: int
    d_hidden: int = 64
    d_embed: int = 32
    init_scale: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        check_field_types(self)
        for name in ("d_in_visual", "d_in_text", "d_hidden", "d_embed"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.init_scale <= 0:
            raise ValueError(f"init_scale must be > 0, got {self.init_scale}")


# (layer, optimizer group, weight rows, weight cols) in init draw order; the
# dims name EncoderConfig fields. Each layer draws its weight, then its bias.
# The classifier is its own group at the visual rate.
_LAYERS = (
    ("stem_v", "visual", "d_hidden", "d_in_visual"),
    ("stem_r", "visual", "d_hidden", "d_in_visual"),
    ("trunk1", "visual", "d_hidden", "d_hidden"),
    ("trunk2", "visual", "d_embed", "d_hidden"),
    ("text1", "text", "d_hidden", "d_in_text"),
    ("text2", "text", "d_embed", "d_hidden"),
    ("cls", "classifier", "n_classes", "d_embed"),
)


def _param_shapes(cfg: EncoderConfig):
    """(name, shape) of every parameter of `cfg`'s encoder, in init draw
    order; allocates nothing."""
    for layer, _, rows, cols in _LAYERS:
        rows, cols = getattr(cfg, rows), getattr(cfg, cols)
        yield f"{layer}.w", (rows, cols)
        yield f"{layer}.b", (rows,)


def init_params(cfg: EncoderConfig) -> ParamStore:
    """Uniform(-init_scale, init_scale) init, fixed draw order, seeded."""
    rng = derive_rng(cfg.seed, "encoder-init")
    store = ParamStore()
    for name, shape in _param_shapes(cfg):
        store.add(name, rng.uniform(-cfg.init_scale, cfg.init_scale, size=shape))
    return store


def param_groups() -> dict[str, list[str]]:
    """Optimizer group -> parameter names, from the layer table."""
    groups: dict[str, list[str]] = {}
    for layer, group, _, _ in _LAYERS:
        groups.setdefault(group, []).extend((f"{layer}.w", f"{layer}.b"))
    return groups


@dataclass
class MlpCache:
    layers: tuple[str, ...]
    inputs: list[np.ndarray]   # input to each affine layer
    pre: list[np.ndarray]      # pre-activation output of each affine layer


def _as_batch(x, d_expected: int, what: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"{what} must be a 2-D batch, got shape {arr.shape}")
    if arr.shape[1] != d_expected:
        raise DimensionError(
            f"{what} has dim {arr.shape[1]}, encoder expects {d_expected}")
    return arr


def _mlp_forward(store: ParamStore, layers: tuple[str, ...], x: np.ndarray,
                 need_grad: bool = True):
    # relu between layers, none after the last
    inputs, pre = [], []
    h = x
    for i, name in enumerate(layers):
        a = h @ store.value(f"{name}.w").swapaxes(-1, -2)
        b = store.value(f"{name}.b")[..., None, :]
        if need_grad:
            inputs.append(h)
            a = a + b
            pre.append(a)
        elif np.broadcast_shapes(a.shape, b.shape) == a.shape:
            np.add(a, b, out=a)   # value-only: the matmul output is this layer's own
        else:
            a = a + b             # a probed bias (P x 1 x rows) widens it
        h = np.maximum(a, 0.0, out=None if need_grad else a) if i < len(layers) - 1 else a
    return h, MlpCache(layers=layers, inputs=inputs, pre=pre) if need_grad else None


def _mlp_backward(store: ParamStore, cache: MlpCache, d_out: np.ndarray) -> np.ndarray:
    g = np.asarray(d_out, dtype=np.float64)
    for i in range(len(cache.layers) - 1, -1, -1):
        name = cache.layers[i]
        x = cache.inputs[i]
        store.grad(f"{name}.w")[...] += g.T @ x
        store.grad(f"{name}.b")[...] += g.sum(axis=0)
        g = g @ store.value(f"{name}.w")
        if i > 0:
            g = g * (cache.pre[i - 1] > 0)
    return g


def encode_visual(store: ParamStore, x, modality: str, need_grad: bool = True):
    """Embed a batch of raw image features of one modality; returns (f,
    cache), the cache None when not `need_grad`."""
    if modality not in STEM_BY_MODALITY:
        raise ValueError(f"unknown modality tag {modality!r}")
    stem = STEM_BY_MODALITY[modality]
    arr = _as_batch(x, store.value(f"{stem}.w").shape[-1], "visual input")
    return _mlp_forward(store, (stem,) + _VISUAL_LAYERS, arr, need_grad)


def encode_visual_backward(store: ParamStore, cache: MlpCache, d_f) -> np.ndarray:
    return _mlp_backward(store, cache, d_f)


def encode_text(store: ParamStore, l, need_grad: bool = True):
    """Embed a batch of raw text features (shared across modalities);
    returns (t, cache), the cache None when not `need_grad`."""
    arr = _as_batch(l, store.value("text1.w").shape[-1], "text input")
    return _mlp_forward(store, _TEXT_LAYERS, arr, need_grad)


def encode_text_backward(store: ParamStore, cache: MlpCache, d_t) -> np.ndarray:
    return _mlp_backward(store, cache, d_t)


def classify(store: ParamStore, f):
    """Identity logits for a batch of embeddings; shared head for every
    branch. The cache is the embedding batch itself, which may carry
    leading probe axes from a probed encoder."""
    w, b = store.value("cls.w"), store.value("cls.b")
    arr = np.asarray(f, dtype=np.float64)
    if arr.ndim < 2 or arr.shape[-1] != w.shape[-1]:
        raise DimensionError(f"embedding batch has shape {arr.shape}, "
                             f"classifier expects ... x N x {w.shape[-1]}")
    return arr @ w.swapaxes(-1, -2) + b[..., None, :], arr


def classify_backward(store: ParamStore, f: np.ndarray, d_logits) -> np.ndarray:
    g = np.asarray(d_logits, dtype=np.float64)
    store.grad("cls.w")[...] += g.T @ f
    store.grad("cls.b")[...] += g.sum(axis=0)
    return g @ store.value("cls.w")


def forward(store: ParamStore, x_v, x_r, l_v, l_r, need_grad: bool = True):
    """One batch through all four branches and the classifier.

    Returns (emb, logits, caches): f_v, f_r, t_v, t_r stacked as
    ... x 4 x N x d and the V and R branches' logits as ... x 2 x N x C, a
    probed branch's leading axes broadcast over each stack. The first four
    caches are the encoders' MlpCaches in embedding order; without
    `need_grad` `caches` is None.
    """
    f_v, c_fv = encode_visual(store, x_v, "V", need_grad)
    f_r, c_fr = encode_visual(store, x_r, "R", need_grad)
    t_v, c_tv = encode_text(store, l_v, need_grad)
    t_r, c_tr = encode_text(store, l_r, need_grad)
    logits_v, c_cv = classify(store, f_v)
    logits_r, c_cr = classify(store, f_r)
    caches = (c_fv, c_fr, c_tv, c_tr, c_cv, c_cr) if need_grad else None
    return (np.stack(np.broadcast_arrays(f_v, f_r, t_v, t_r), axis=-3),
            np.stack(np.broadcast_arrays(logits_v, logits_r), axis=-3), caches)


def backward(store: ParamStore, caches, d_emb, d_logits) -> None:
    """Zero the grads, then backpropagate the loss gradients w.r.t. the
    embeddings (4 x N x d) and the logits (2 x N x C) of one `forward` into
    every parameter."""
    c_fv, c_fr, c_tv, c_tr, c_cv, c_cr = caches
    d_fv, d_fr, d_tv, d_tr = d_emb
    store.zero_grads()
    d_fv = d_fv + classify_backward(store, c_cv, d_logits[0])
    d_fr = d_fr + classify_backward(store, c_cr, d_logits[1])
    encode_visual_backward(store, c_fv, d_fv)
    encode_visual_backward(store, c_fr, d_fr)
    encode_text_backward(store, c_tv, d_tv)
    encode_text_backward(store, c_tr, d_tr)


# ------------------------------------------------------------- checkpoints

def save_checkpoint(path: Path | str, cfg: EncoderConfig, store: ParamStore) -> None:
    """JSONL container: a config record, then one record per tensor.

    Tensor data is stored flat in row-major order; float64 repr round-trips
    bit-exactly through JSON.
    """
    path = Path(path)
    with path.open("w") as fh:
        fh.write(json.dumps({"kind": "encoder_config", **asdict(cfg)},
                            allow_nan=False) + "\n")
        for name in store.names():
            v = store.value(name)
            rec = {"kind": "tensor", "name": name, "shape": list(v.shape),
                   "data": np.ascontiguousarray(v).reshape(-1).tolist()}
            fh.write(json.dumps(rec, allow_nan=False) + "\n")


def load_checkpoint(path: Path | str):
    path = Path(path)
    cfg = None
    store = ParamStore()
    with path.open("rb") as fh:   # decoded per line, so a bad byte names it
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                if not isinstance(rec, dict):
                    raise ValueError("not a JSON object")
                kind = rec.pop("kind", None)
                if kind == "encoder_config":
                    if cfg is not None:
                        raise ValueError("a second encoder_config record")
                    cfg = EncoderConfig(**rec)
                elif kind == "tensor":
                    arr = float64_vector(rec["data"], "data").reshape(rec["shape"])
                    store.add(rec["name"], arr)
                else:
                    raise ValueError(f"unknown record kind {kind!r}")
            except (KeyError, TypeError, ValueError) as e:
                # bad JSON, missing fields, unknown config keys, duplicate
                # tensors
                raise ValueError(f"{path}:{line_no}: bad record: {e}") from e
    if cfg is None:
        raise ValueError(f"{path}: missing encoder_config record")
    want = dict(_param_shapes(cfg))
    got = {n: store.value(n).shape for n in store.names()}
    problems = [f"missing {n}" for n in want if n not in got]
    problems += [f"unexpected {n}" for n in got if n not in want]
    problems += [f"{n} has shape {got[n]}, config wants {want[n]}"
                 for n in want if n in got and got[n] != want[n]]
    if problems:
        raise ValueError(f"{path}: tensors do not match the encoder config: "
                         + "; ".join(problems))
    return cfg, store
