"""Float64 numeric substrate: seeded RNG streams, a named parameter store,
and a central-difference gradient checker.

Everything downstream assumes 64-bit floats. 32-bit arithmetic is too noisy
for reliable central-difference verification at h=1e-5.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionError",
    "DegenerateInputError",
    "ProtocolError",
    "derive_rng",
    "derive_seed",
    "ParamStore",
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


@dataclass
class FdEntry:
    name: str
    max_rel_err: float
    worst_index: int
    n_flagged: int
    nonfinite: bool = False


@dataclass
class FdReport:
    h: float
    tol: float
    loss_value: float
    entries: list[FdEntry]

    @property
    def ok(self) -> bool:
        return all(e.n_flagged == 0 and not e.nonfinite for e in self.entries)

    @property
    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)

    def summary(self) -> str:
        lines = [f"loss={self.loss_value:.6g} h={self.h:g} tol={self.tol:g}"]
        for e in self.entries:
            status = "ok" if e.n_flagged == 0 and not e.nonfinite else "FAIL"
            lines.append(
                f"  {e.name:16s} max_rel={e.max_rel_err:.3e} "
                f"flagged={e.n_flagged} {status}"
            )
        return "\n".join(lines)


def finite_difference_check(loss_fn, store: ParamStore, h: float = 1e-5,
                            tol: float = 1e-4, value_fn=None) -> FdReport:
    """Compare analytic gradients against two-sided finite differences.

    `loss_fn(store)` must return the scalar loss and leave the analytic
    gradients in the store's grad buffers (recomputed from scratch, i.e. it
    zeroes before accumulating). `value_fn`, when given, is a cheaper
    value-only version of the same scalar used for the perturbed
    evaluations. Relative error per scalar parameter is
    |a - n| / max(1, |a|, |n|). Non-finite loss values are reported as
    check failures rather than raised.
    """
    if not (1e-7 <= h <= 1e-3):
        raise ValueError(f"step size h={h:g} outside [1e-7, 1e-3]")
    if value_fn is None:
        value_fn = loss_fn

    store.zero_grads()
    base = float(loss_fn(store))
    analytic = {name: store.grad(name).copy() for name in store.names()}

    entries: list[FdEntry] = []
    if not np.isfinite(base):
        for name in store.names():
            size = store.value(name).size
            entries.append(FdEntry(name, np.inf, 0, size, nonfinite=True))
        return FdReport(h, tol, base, entries)

    for name in store.names():
        flat = store.value(name).reshape(-1)
        g = analytic[name].reshape(-1)
        max_rel = 0.0
        worst = 0
        flagged = 0
        nonfinite = False
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = float(value_fn(store))
            flat[i] = orig - h
            lm = float(value_fn(store))
            flat[i] = orig
            if not (np.isfinite(lp) and np.isfinite(lm)):
                nonfinite = True
                flagged += 1
                continue
            num = (lp - lm) / (2.0 * h)
            rel = abs(g[i] - num) / max(1.0, abs(g[i]), abs(num))
            if rel > max_rel:
                max_rel = rel
                worst = i
            if rel > tol:
                flagged += 1
        entries.append(FdEntry(name, max_rel, worst, flagged, nonfinite))
    return FdReport(h, tol, base, entries)
