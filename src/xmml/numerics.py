"""Float64 numeric substrate: seeded RNG streams, a named parameter store,
exact blocked pairwise distances, phase timers, a central-difference
gradient checker, check_field_types, the config dataclasses' type rule, and
float64_vector, the one reader of a JSON list of numbers.

Everything downstream assumes 64-bit floats. 32-bit arithmetic is too noisy
for reliable central-difference verification at h=1e-5.
"""

from __future__ import annotations

import functools
import math
import time
import types
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, fields
from numbers import Integral, Real
from typing import get_args, get_origin, get_type_hints

import numpy as np

__all__ = [
    "DimensionError",
    "DegenerateInputError",
    "ProtocolError",
    "check_field_types",
    "float64_vector",
    "derive_rng",
    "derive_seed",
    "ParamStore",
    "pairwise_distances",
    "rows_by_label",
    "timed",
    "FdEntry",
    "FdReport",
    "ProbeMismatchError",
    "finite_difference_check",
]


class DimensionError(ValueError):
    """Shape is empty, has the wrong rank, or does not match its operand."""


class DegenerateInputError(ValueError):
    """Numerically unusable input: zero norm or non-finite entries."""


class ProtocolError(RuntimeError):
    """A batch / sampling / evaluation precondition does not hold."""


def _seed_word(name: str, value):
    # one 64-bit SeedSequence word: masking would alias another seed's stream
    if not 0 <= value < 2**64:
        raise ValueError(f"{name} must be in [0, 2**64), got {value!r}")
    return value


def _tag_int(tag) -> int:
    if isinstance(tag, str):
        return zlib.crc32(tag.encode("utf8"))
    return _seed_word("seed or tag", int(tag))


def derive_rng(root_seed: int, *tags) -> np.random.Generator:
    """Independent reproducible RNG stream keyed by (root_seed, *tags)."""
    entropy = [_tag_int(root_seed)] + [_tag_int(t) for t in tags]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_seed(root_seed: int, *tags) -> int:
    """Stable child seed for APIs that take a plain integer."""
    entropy = [_tag_int(root_seed)] + [_tag_int(t) for t in tags]
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0])


# get_type_hints evaluates the string annotations anew on each call, several
# times the cost of the check itself
_type_hints = functools.cache(get_type_hints)
_NUMBERS = {int: Integral, float: Real}

# the fields that root an RNG stream, each one 64-bit SeedSequence word
SEED_FIELDS = ("seed", "mix_seed")


def _holds(hint, value) -> bool:
    if hint in _NUMBERS:
        return isinstance(value, _NUMBERS[hint]) and not isinstance(value, bool)
    if isinstance(hint, types.UnionType):   # `T | None`
        return any(_holds(a, value) for a in get_args(hint))
    if get_origin(hint) is tuple:   # `tuple[T, ...]`
        return isinstance(value, tuple) and all(_holds(get_args(hint)[0], v) for v in value)
    return isinstance(value, hint)


def check_field_types(obj) -> None:
    """Raise ValueError naming the first field of dataclass `obj` whose value
    does not match its annotation. An int field takes an Integral and a float
    field a Real, neither a bool; `T | None` takes None or a T; `tuple[T, ...]`
    a tuple of T; any other annotation an instance of it. A number must also
    be finite, and a field of SEED_FIELDS lie in [0, 2**64)."""
    hints = _type_hints(type(obj))
    for f in fields(obj):
        value = getattr(obj, f.name)
        if not _holds(hints[f.name], value):
            raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
        # compared, not converted: an int beyond float range is finite
        if isinstance(value, Real) and not -math.inf < value < math.inf:
            raise ValueError(f"{f.name} must be finite, got {value!r}")
        if f.name in SEED_FIELDS:
            _seed_word(f.name, value)


def float64_vector(value, name: str) -> np.ndarray:
    """The JSON list `value` as a float64 vector, or a ValueError naming
    `name`: a flat list of ints and floats, not bools, within float64 range
    (2**70 reads as its float, 10**400 does not). NaN and inf pass."""
    if type(value) is not list or not set(map(type, value)) <= {int, float}:
        raise ValueError(f"{name} is not a flat list of numbers")
    try:
        return np.array(value, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"{name} holds a number beyond float64 range") from None


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

    def zero_grads(self) -> None:
        for g in self._grads.values():
            g[...] = 0.0


# float64 cells in one block of pairwise_distances (128 KiB). In a sweep of
# 2048 to 65536 cells (CHANGES.md) training-cell times differed by less than
# the host's noise; this size, the largest up to 128 KiB, had the fastest
# 512-identity modality gap
_BLOCK_CELLS = 1 << 14

# float64 cells of the probe rows in one value-only pass of
# finite_difference_check, chosen by a sweep (CHANGES.md)
_PROBE_CELLS = 1 << 13


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of `a` (... x n x d) and `b`
    (... x m x d), with the same leading axes: ... x n x m.

    Equal to the bit to np.sqrt(((a[..., :, None, :] - b[..., None, :, :]) ** 2)
    .sum(axis=-1)), but the n x m x d difference tensor is never built:
    blocks of at most _BLOCK_CELLS cells (whole leading slices when one
    slice fits, else rows of one slice, down to one row) are differenced,
    squared in place and summed over the last axis into the result, with the
    same reduction the full tensor would use.
    """
    n, d = a.shape[-2:]
    m = b.shape[-2]
    a3, b3 = a.reshape(-1, n, d), b.reshape(-1, m, d)
    n_slices = a3.shape[0]
    out = np.empty((n_slices, n, m))
    rows = max(1, _BLOCK_CELLS // max(1, m * d))
    slices, rows = max(1, rows // n), min(rows, n)
    buf = np.empty((min(slices, n_slices), rows, m, d))
    for k in range(0, n_slices, slices):
        for i in range(0, n, rows):
            block = buf[:n_slices - k, :n - i]
            np.subtract(a3[k:k + slices, i:i + rows, None, :], b3[k:k + slices, None, :, :],
                        out=block)
            np.multiply(block, block, out=block)
            block.sum(axis=-1, out=out[k:k + slices, i:i + rows])
    return np.sqrt(out, out=out).reshape(a.shape[:-1] + (m,))


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


class ProbeMismatchError(ArithmeticError):
    """A stacked value-only evaluation at the unperturbed point differs from
    the 2-D evaluation."""


class _ProbeView:
    """The store as one value-only pass sees it: `value(name)` of the probed
    parameter is a P x shape stack of probe values, every other name gives
    the store's own array. There is no `grad`: a value-only evaluation that
    writes a gradient fails."""

    def __init__(self, store: ParamStore, name: str, stack: np.ndarray):
        self._store, self._name, self._stack = store, name, stack

    def value(self, name: str) -> np.ndarray:
        return self._stack if name == self._name else self._store.value(name)


def finite_difference_check(evaluate, store: ParamStore, h: float = 1e-5,
                            tol: float = 1e-4) -> FdReport:
    """Compare analytic gradients against two-sided finite differences.

    `evaluate(store, need_grad)` returns the loss. With `need_grad=True` it
    gets the store itself and also writes the analytic gradients into its
    grad buffers; it is called that way once, after the buffers are zeroed,
    and must return a scalar. Every other call is value-only
    (`need_grad=False`) and gets a probe view of the store: `value(name)` of
    one parameter is a P x shape stack of probe rows, every other name gives
    the store's own array, and there is no `grad`. Such a call returns the P
    loss values, or one scalar when the loss does not read the parameter,
    each equal to the bit to a 2-D call at that row.

    A parameter's rows are, in order, its unperturbed value, then for each
    scalar in flat order the value with that scalar moved by +h and by -h:
    1 + 2·size rows, evaluated in chunks of at most _PROBE_CELLS cells (at
    least one row), each built when it is evaluated. If the unperturbed row
    does not give the 2-D value exactly, ProbeMismatchError is raised.
    Relative error per scalar parameter is |a - n| / max(1, |a|, |n|).
    Non-finite loss values and analytic gradients are reported as check
    failures rather than raised.
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
        value = store.value(name)
        flat = value.reshape(-1)
        size = flat.size
        # row r > 0 is probe r - 1: scalar (r - 1) // 2, +h for odd r, -h for even r
        n_rows = 1 + 2 * size
        chunk = max(1, _PROBE_CELLS // size)
        values = np.empty(n_rows)
        for r0 in range(0, n_rows, chunk):
            r = np.arange(r0, min(r0 + chunk, n_rows))
            stack = np.repeat(flat[None, :], r.size, axis=0)
            probed = r > 0
            cols = (r[probed] - 1) // 2
            stack[probed, cols] = np.where(r[probed] % 2 == 1, flat[cols] + h, flat[cols] - h)
            view = _ProbeView(store, name, stack.reshape((r.size,) + value.shape))
            values[r0:r0 + r.size] = evaluate(view, False)
        if values[0] != base:
            raise ProbeMismatchError(
                f"parameter {name!r}: the stacked evaluation at the unperturbed point "
                f"gives {float(values[0])!r}, the 2-D evaluation {base!r}")
        lp, lm = values[1::2], values[2::2]
        g = analytic[name].reshape(-1)
        finite = np.isfinite(lp) & np.isfinite(lm) & np.isfinite(g)
        num = (lp[finite] - lm[finite]) / (2.0 * h)
        a = g[finite]
        rel = np.abs(a - num) / np.maximum(np.maximum(1.0, np.abs(a)), np.abs(num))
        # fmax skips a NaN ratio (an overflowed difference) as max() did per scalar
        max_rel = float(np.fmax.reduce(rel, initial=0.0))
        flagged = int(size - finite.sum() + (rel > tol).sum())
        entries.append(FdEntry(name, max_rel, flagged, not finite.all()))
    return FdReport(entries)
