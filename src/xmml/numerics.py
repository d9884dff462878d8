"""Float64 numeric substrate: seeded RNG streams, a named parameter store,
exact blocked pairwise distances, phase timers, and a central-difference
gradient checker.

Everything downstream assumes 64-bit floats. 32-bit arithmetic is too noisy
for reliable central-difference verification at h=1e-5.
"""

from __future__ import annotations

import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionError",
    "DegenerateInputError",
    "ProtocolError",
    "derive_rng",
    "derive_seed",
    "ParamStore",
    "pairwise_distances",
    "rows_by_label",
    "timed",
    "FdEntry",
    "FdReport",
    "finite_difference_check",
]


class DimensionError(ValueError):
    """Shape is empty, has the wrong rank, or does not match its operand."""


class DegenerateInputError(ValueError):
    """Numerically unusable input: zero norm or non-finite entries."""


class ProtocolError(RuntimeError):
    """A batch / sampling / evaluation precondition does not hold."""


def _tag_int(tag) -> int:
    if isinstance(tag, str):
        return zlib.crc32(tag.encode("utf8"))
    return int(tag) & 0xFFFFFFFFFFFFFFFF


def derive_rng(root_seed: int, *tags) -> np.random.Generator:
    """Independent reproducible RNG stream keyed by (root_seed, *tags)."""
    entropy = [_tag_int(root_seed)] + [_tag_int(t) for t in tags]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_seed(root_seed: int, *tags) -> int:
    """Stable child seed for APIs that take a plain integer."""
    entropy = [_tag_int(root_seed)] + [_tag_int(t) for t in tags]
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0])


class ParamStore:
    """Ordered name -> value map with a like-shaped gradient buffer per entry.

    Values and grads are float64 and mutated in place; `value()` / `grad()`
    hand out live references on purpose, so optimizer updates and gradient
    accumulation need no copying.
    """

    def __init__(self):
        self._values: dict[str, np.ndarray] = {}
        self._grads: dict[str, np.ndarray] = {}

    def add(self, name: str, value) -> np.ndarray:
        if name in self._values:
            raise KeyError(f"parameter {name!r} already registered")
        arr = np.array(value, dtype=np.float64)
        if arr.size == 0:
            raise DimensionError(f"parameter {name!r} is empty")
        if not np.isfinite(arr).all():
            raise DegenerateInputError(f"parameter {name!r} has non-finite entries")
        self._values[name] = arr
        self._grads[name] = np.zeros_like(arr)
        return arr

    def value(self, name: str) -> np.ndarray:
        return self._values[name]

    def grad(self, name: str) -> np.ndarray:
        return self._grads[name]

    def names(self) -> list[str]:
        return list(self._values)

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def __len__(self) -> int:
        return len(self._values)

    def zero_grads(self) -> None:
        for g in self._grads.values():
            g[...] = 0.0


# float64 cells in one block of pairwise_distances (128 KiB). In a sweep of
# 2048 to 65536 cells (CHANGES.md) training-cell times differed by less than
# the host's noise; this size, the largest up to 128 KiB, had the fastest
# 512-identity modality gap
_BLOCK_CELLS = 1 << 14


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of `a` (n x d) and `b` (m x d).

    Equal to the bit to np.sqrt(((a[:, None] - b[None]) ** 2).sum(axis=2)),
    but the n x m x d difference tensor is never built: blocks of rows of
    `a`, at most _BLOCK_CELLS cells each (or one row when a row is larger),
    are differenced, squared in place and summed over the last axis into the
    result rows, with the same reduction the full tensor would use.
    """
    n, d = a.shape
    m = b.shape[0]
    out = np.empty((n, m))
    rows = max(1, _BLOCK_CELLS // max(1, m * d))
    buf = np.empty((min(rows, n), m, d))
    for i in range(0, n, rows):
        block = buf[:min(rows, n - i)]
        np.subtract(a[i:i + rows, None, :], b[None, :, :], out=block)
        np.multiply(block, block, out=block)
        block.sum(axis=2, out=out[i:i + rows])
    return np.sqrt(out, out=out)


def rows_by_label(labels: np.ndarray) -> dict[int, np.ndarray]:
    """Row indices of each label, labels ascending, each label's rows in
    their order in `labels` (a stable sort)."""
    order = np.argsort(labels, kind="stable")
    values, starts = np.unique(labels[order], return_index=True)
    return dict(zip(values.tolist(), np.split(order, starts[1:])))


@contextmanager
def timed(timings: dict[str, float] | None, phase: str):
    """Adds the block's wall time to timings[phase]; a no-op without timings."""
    t0 = time.perf_counter()
    yield
    if timings is not None:
        timings[phase] = timings.get(phase, 0.0) + time.perf_counter() - t0


@dataclass
class FdEntry:
    name: str
    max_rel_err: float
    n_flagged: int
    nonfinite: bool = False


@dataclass
class FdReport:
    entries: list[FdEntry]

    @property
    def ok(self) -> bool:
        return all(e.n_flagged == 0 and not e.nonfinite for e in self.entries)

    @property
    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)


def finite_difference_check(evaluate, store: ParamStore, h: float = 1e-5,
                            tol: float = 1e-4) -> FdReport:
    """Compare analytic gradients against two-sided finite differences.

    `evaluate(store, need_grad)` returns the scalar loss. With
    `need_grad=True` it also writes the analytic gradients into the store's
    grad buffers; it is called that way once, after the buffers are zeroed.
    Both probes of every scalar call it with `need_grad=False`, which must
    give the same value to the bit and leave the buffers alone. Relative
    error per scalar parameter is |a - n| / max(1, |a|, |n|). Non-finite
    loss values and analytic gradients are reported as check failures
    rather than raised.
    """
    if not (1e-7 <= h <= 1e-3):
        raise ValueError(f"step size h={h:g} outside [1e-7, 1e-3]")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance tol={tol:g} must be finite and > 0")

    store.zero_grads()
    base = float(evaluate(store, True))
    analytic = {name: store.grad(name).copy() for name in store.names()}

    entries: list[FdEntry] = []
    if not np.isfinite(base):
        for name in store.names():
            entries.append(FdEntry(name, np.inf, store.value(name).size, nonfinite=True))
        return FdReport(entries)

    for name in store.names():
        flat = store.value(name).reshape(-1)
        g = analytic[name].reshape(-1)
        max_rel = 0.0
        flagged = 0
        nonfinite = False
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = float(evaluate(store, False))
            flat[i] = orig - h
            lm = float(evaluate(store, False))
            flat[i] = orig
            if not (np.isfinite(lp) and np.isfinite(lm) and np.isfinite(g[i])):
                nonfinite = True
                flagged += 1
                continue
            num = (lp - lm) / (2.0 * h)
            rel = abs(g[i] - num) / max(1.0, abs(g[i]), abs(num))
            max_rel = max(max_rel, rel)
            if rel > tol:
                flagged += 1
        entries.append(FdEntry(name, max_rel, flagged, nonfinite))
    return FdReport(entries)
