"""Span tracer that wraps xmml's layer functions from outside the package.

`Tracer.install()` replaces each traced function with a wrapper that records
one span per call: a key, start and end (integer nanoseconds), the enclosing
span, and a named count (rows embedded, queries ranked, loss evaluations).
Functions bound into other xmml modules by `from ... import` are found by
identity and patched there too; `uninstall()` puts every original back.
Spans stay in memory as flat arrays; `summary()` turns them into self
times (duration minus the time covered by wrapped children) and call counts.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

# (module, attribute, count_fn). Only functions with a per-layer metric are
# wrapped: wrapping a helper such as synthdata.load_split would move its time
# out of the self time of the caller the metric names (load_dataset). The cli
# subcommand handlers are left unwrapped so that parsing, the CSV/JSON writers
# and the manifest SHA-256 all count as cli.main self time.
TRACED = (
    ("synthdata", "sample_batch", None),
    ("synthdata", "generate_dataset", None),
    ("synthdata", "save_dataset", None),
    ("synthdata", "load_dataset", None),
    ("model", "encode_visual", lambda a, k: _rows(a[1] if len(a) > 1 else k["x"])),
    ("model", "encode_text", None),
    ("model", "classify", None),
    ("model", "encode_visual_backward", None),
    ("model", "encode_text_backward", None),
    ("model", "classify_backward", None),
    ("model", "load_checkpoint", None),
    ("model", "save_checkpoint", None),
    ("losses", "total_loss", None),
    ("losses", "EmbeddingSet", None),
    ("losses", "identity_loss", None),
    ("losses", "weighted_triplet_loss", None),
    ("losses", "contrastive_pair_loss", None),
    ("losses", "contrastive_fused", None),
    ("losses", "fuse_multiview", None),
    ("losses", "distill_loss", None),
    ("losses", "distance_parity_loss", None),
    ("trainer", "train_step", None),
    ("trainer", "run_training", None),
    ("evaluator", "evaluate", None),
    ("evaluator", "cmc_map", lambda a, k: _rows(a[0] if a else k["sim"])),
    ("evaluator", "modality_gap", None),
    ("evaluator", "conflict_sensitivity", None),
    ("numerics", "finite_difference_check",
     lambda a, k: 1 + 2 * _n_scalars(a[1] if len(a) > 1 else k["store"])),
    ("gradcheck", "build_case", None),
    ("gradcheck", "check_loss", None),
    ("cli", "main", None),
)

# gradcheck.check_loss spans are keyed by family: gradcheck.<name>
_FAMILY_KEYED = ("gradcheck", "check_loss")

# named counts reported per layer, by span key
COUNT_STATS = {"model.encode_visual": "rows", "evaluator.cmc_map": "queries",
               "numerics.finite_difference_check": "loss_evals"}


def _rows(x) -> int:
    return len(x)


def _n_scalars(store) -> int:
    return sum(store.value(name).size for name in store.names())


class TracerError(RuntimeError):
    """The tracer's own invariants do not hold."""


def package_modules(package: str = "xmml") -> list:
    """The imported modules of `package`, the package itself included."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def rebind(original, replacement, modules) -> list[tuple[object, str, object]]:
    """Point every module attribute bound to `original` at `replacement`.

    Returns the patches as (module, attribute, original) for `restore`.
    """
    patches = []
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)
                patches.append((mod, name, original))
    return patches


def restore(patches) -> None:
    """Undo `rebind` patches, last first, and check the originals are back."""
    for owner, name, original in reversed(patches):
        setattr(owner, name, original)
    if not all(getattr(owner, name) is original for owner, name, original in patches):
        raise TracerError("uninstall left a wrapper in place")


def self_times(spans, keys):
    """Per-span duration and self time, in ns; raises if children outlast a parent."""
    import numpy as np
    dur = spans["end"] - spans["start"]
    has_parent = spans["parent"] >= 0
    child_ns = np.zeros_like(dur)
    np.add.at(child_ns, spans["parent"][has_parent], dur[has_parent])
    bad = np.flatnonzero(child_ns > dur)
    if bad.size:
        i = int(bad[0])
        raise TracerError(f"children of span {keys[spans['key'][i]]} "
                          f"cover {child_ns[i]} ns of its {dur[i]} ns")
    return dur, dur - child_ns


class Tracer:
    """Records spans around the TRACED functions of an imported xmml."""

    def __init__(self):
        self.keys: list[str] = []
        self._key_ids: dict[str, int] = {}
        self.key = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.count = array("q")
        self.phase = array("b")
        self.current_phase = 0
        self.missing: list[str] = []
        self.bindings: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------------- spans

    def _key_id(self, key: str) -> int:
        kid = self._key_ids.get(key)
        if kid is None:
            kid = self._key_ids[key] = len(self.keys)
            self.keys.append(key)
        return kid

    def _wrap(self, fn, key: str, count_fn, family_keyed: bool):
        tracer = self
        kid = self._key_id(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_kid = kid
            if family_keyed:
                name = args[0] if args else kwargs["name"]
                span_kid = tracer._key_id(f"gradcheck.{name}")
            idx = len(tracer.key)
            stack = tracer._stack
            tracer.key.append(span_kid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.count.append(count_fn(args, kwargs) if count_fn else 0)
            tracer.phase.append(tracer.current_phase)
            tracer.end.append(0)
            stack.append(idx)
            tracer.start.append(time.perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter_ns()
                stack.pop()
        return wrapper

    # ------------------------------------------------------ install / remove

    def install(self) -> None:
        if self._patches:
            raise TracerError("tracer already installed")
        self.missing = []
        modules = package_modules()
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for mod_name, attr, count_fn in TRACED:
            module = by_name.get(mod_name)
            original = getattr(module, attr, None) if module is not None else None
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            key = f"{mod_name}.{attr}"
            if isinstance(original, type):
                # a class: trace its constructor, which validates its input
                init = original.__dict__["__init__"]
                setattr(original, "__init__", self._wrap(init, key, count_fn, False))
                self._patches.append((original, "__init__", init))
                continue
            wrapper = self._wrap(original, key, count_fn,
                                 (mod_name, attr) == _FAMILY_KEYED)
            self._patches.extend(rebind(original, wrapper, modules))
        self.bindings = sorted(f"{getattr(owner, '__name__', owner)}.{name}"
                               for owner, name, _ in self._patches)

    def uninstall(self) -> None:
        patches, self._patches = self._patches, []
        restore(patches)

    @contextlib.contextmanager
    def suspended(self):
        """Run a block with every original function back in place."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    # ------------------------------------------------------------ summaries

    def spans(self):
        """Spans as numpy arrays: key, parent, start_ns, end_ns, count, phase."""
        import numpy as np
        if self._stack:
            raise TracerError("spans read while a traced call is open")
        return {name: np.frombuffer(getattr(self, name), dtype=dtype).copy()
                for name, dtype in (("key", np.int32), ("parent", np.int32),
                                    ("start", np.int64), ("end", np.int64),
                                    ("count", np.int64), ("phase", np.int8))}

    def summary(self, n_ops: int, setup_phase: int, op_phase: int) -> dict:
        """Per key: calls, self_s, total_s, count and op-phase durations.

        Figures are one set-up (spans in `setup_phase`) plus the mean of one
        operation (spans in `op_phase`, divided by `n_ops`).
        """
        import numpy as np
        spans = self.spans()
        dur, self_t = self_times(spans, self.keys)
        out = {}
        for kid, key in enumerate(self.keys):
            stat = {"calls": 0.0, "self_s": 0.0, "total_s": 0.0, "count": 0.0}
            for phase, scale in ((setup_phase, 1.0), (op_phase, 1.0 / n_ops)):
                sel = (spans["key"] == kid) & (spans["phase"] == phase)
                stat["calls"] += scale * int(sel.sum())
                stat["self_s"] += scale * float(self_t[sel].sum()) * 1e-9
                stat["total_s"] += scale * float(dur[sel].sum()) * 1e-9
                stat["count"] += scale * float(spans["count"][sel].sum())
            sel = (spans["key"] == kid) & (spans["phase"] == op_phase)
            stat["durations_s"] = dur[sel] * 1e-9
            out[key] = stat
        return out


def per_layer_metrics(summary: dict, names: list[str]) -> dict[str, float]:
    """Values of the named per-layer metrics from a `Tracer.summary`.

    A name is `<module>.<function>.<stat>` with stat one of calls, self_s,
    p50_ms, p99_ms or a named count, or `gradcheck.<family>.s` for the
    inclusive time of one gradcheck family. Layers never called read 0.
    """
    import numpy as np
    values = {}
    for name in names:
        key, stat = name.rsplit(".", 1)
        s = summary.get(key)
        if s is None:
            values[name] = 0.0
        elif stat in ("calls", "self_s"):
            values[name] = s[stat]
        elif stat == "s":
            values[name] = s["total_s"]
        elif stat in ("p50_ms", "p99_ms"):
            d = s["durations_s"]
            q = 50 if stat == "p50_ms" else 99
            values[name] = float(np.percentile(d, q)) * 1e3 if d.size else 0.0
        elif COUNT_STATS.get(key) == stat:
            values[name] = s["count"]
        else:
            raise KeyError(f"no per-layer statistic {name!r}")
    return values
