"""Alternating parent/change benchmark runs, summarised into BENCH_<name>.json.

    python3 scripts/bench_pairs.py --parent 5359e0c --pairs 10 --out BENCH_6.json
    python3 scripts/bench_pairs.py --parent fe8b032 --change 1fff965 \\
        --workloads gradcheck_suite --pairs 3 --seconds 10 --out /tmp/bench.json

Each revision's committed files are exported with `git archive` into a
temporary directory (removed at the end); without --change the change side
is the checkout this script lives in, working-tree files included. Pair k runs
`perfbench/run.py --seed <seed0 + k> --trace 0` of each side's own checkout
once per side, the parent first in even pairs and the change first in odd
ones, so slow spells of the host hit both sides alike.

The output holds the machine record, every run's raw record and result
lines, and per workload and end-to-end metric: min, quartiles and median of
each side, the median change, the parent's interquartile range, the pairs
the change won, and `beyond_bound`: whether the change's median is worse
than the parent's by more than the metric's `bound` in BENCHMARK.json (each
such metric is also printed to stderr). `fingerprints_match` says whether
every pair gave identical fingerprints (bit-preserving) or not
(trajectory-changing).
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train_full", "gradcheck_suite", "eval_large")


def _git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def _export(rev: str, dest: Path) -> None:
    """The files of commit `rev`, written under `dest`."""
    dest.mkdir(parents=True)
    tar = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                         capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)


def make_workdir(parent: str | None) -> Path:
    """A new temporary directory for the exports, inside `parent` (created
    if missing) or the system's temporary directory."""
    if parent is not None:
        Path(parent).mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="bench_pairs_", dir=parent))


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          stdin=subprocess.DEVNULL)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return {"record": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def _flat(tree, prefix="") -> dict[str, object]:
    if not isinstance(tree, dict):
        return {prefix: tree}
    out = {}
    for key, value in tree.items():
        out.update(_flat(value, f"{prefix}/{key}"))
    return out


def _same_fingerprints(a: dict, b: dict) -> bool:
    # train_full runs may cover different numbers of training seeds: compare
    # the fingerprints both runs have
    fa, fb = _flat(a), _flat(b)
    common = fa.keys() & fb.keys()
    return bool(common) and all(fa[k] == fb[k] for k in common)


def _stats(values: list[float]) -> dict[str, float]:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else [values[0]] * 3)
    return {"min": min(values), "q1": q1, "median": median, "q3": q3,
            "max": max(values), "n": len(values)}


def summarize(runs: list[dict], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict:
    """Per-metric statistics of one workload's paired runs; `bounds` maps a
    metric to the fraction its median may worsen by (no bound if absent)."""
    by_pair: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run
    pairs = [p for p in by_pair.values() if len(p) == 2]
    metrics = {}
    for name, direction in better.items():
        side = {s: [p[s]["result"]["metrics"][name]["value"] for p in pairs]
                for s in ("parent", "change")}
        sign = 1.0 if direction == "higher" else -1.0
        parent, change = _stats(side["parent"]), _stats(side["change"])
        rel = change["median"] / parent["median"] - 1.0
        bound = (bounds or {}).get(name)
        metrics[name] = {
            "better": direction, "parent": parent, "change": change,
            "median_change_pct": 100.0 * rel,
            "beyond_bound": bound is not None and -sign * rel > bound,
            "median_gap": change["median"] - parent["median"],
            "parent_iqr": parent["q3"] - parent["q1"],
            "pairs_won_by_change": sum(1 for c, p in zip(side["change"], side["parent"])
                                       if sign * (c - p) > 0),
            "n_pairs": len(pairs),
        }
    return {
        "metrics": metrics,
        "failed_ops": {s: sum(p[s]["result"]["failed"] for p in pairs)
                       for s in ("parent", "change")},
        "attempted_ops": {s: sum(p[s]["result"]["attempted"] for p in pairs)
                          for s in ("parent", "change")},
        "fingerprints_match": all(
            _same_fingerprints(p["parent"]["record"]["workload_record"]["fingerprints"],
                               p["change"]["record"]["workload_record"]["fingerprints"])
            for p in pairs),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="parent revision")
    p.add_argument("--change", help="change revision (default: this checkout)")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--seed0", type=int, default=601, help="seed of pair 0")
    p.add_argument("--out", required=True, help="output JSON, e.g. BENCH_6.json")
    p.add_argument("--workdir", help="directory for the exports (default: a temp dir)")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if "bound" in m}
    tmp = make_workdir(args.workdir)
    sides = {"parent": {"rev": args.parent}, "change": {"rev": args.change or "working tree"}}
    checkouts = {}
    try:
        for side, rev in (("parent", args.parent), ("change", args.change)):
            if rev is None:
                checkouts[side] = ROOT
                sides[side]["commit"] = _git("rev-parse", "HEAD")
                sides[side]["dirty"] = bool(_git("status", "--porcelain"))
                continue
            checkouts[side] = tmp / side
            _export(rev, checkouts[side])
            sides[side]["commit"] = _git("rev-parse", f"{rev}^{{commit}}")

        report = {"schema": "xmml-bench-pairs v1", "sides": sides,
                  "settings": {"pairs": args.pairs, "seconds": args.seconds,
                               "seed0": args.seed0, "trace": 0},
                  "machine": None, "workloads": {}}
        for workload in args.workloads.split(","):
            runs = []
            for k in range(args.pairs):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    run = _run(checkouts[side], workload, args.seed0 + k, args.seconds)
                    runs.append({"pair": k, "side": side, "seed": args.seed0 + k, **run})
                    print(f"{workload} pair {k} {side}: "
                          + " ".join(f"{n}={m['value']:.4g}"
                                     for n, m in run["result"]["metrics"].items()),
                          file=sys.stderr, flush=True)
            report["machine"] = report["machine"] or runs[0]["record"]["machine"]
            summary = summarize(runs, better, bounds)
            report["workloads"][workload] = {**summary, "runs": runs}
            for name, m in summary["metrics"].items():
                if m["beyond_bound"]:
                    print(f"{workload} {name}: median {m['parent']['median']:.4g} -> "
                          f"{m['change']['median']:.4g} ({m['median_change_pct']:+.1f}%), "
                          f"beyond the {bounds[name]:.0%} bound", file=sys.stderr, flush=True)
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
