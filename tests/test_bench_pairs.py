"""The paired-run summary of scripts/bench_pairs.py on hand-made run lines."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BETTER = {"op_s": "lower", "work_per_s": "higher"}


def run(pair: int, side: str, op_s: float, fingerprints: dict, failed: int = 0) -> dict:
    return {"pair": pair, "side": side,
            "record": {"workload_record": {"fingerprints": fingerprints}},
            "result": {"attempted": 3, "failed": failed,
                       "metrics": {"op_s": {"value": op_s},
                                   "work_per_s": {"value": 100.0 / op_s}}}}


def test_statistics_and_pairs_won():
    fp = {"eval_report.json": "abc"}
    parent = [2.0, 2.2, 2.4, 2.6]
    change = [1.0, 2.3, 1.2, 1.1]   # loses pair 1 only
    runs = [run(k, "parent", t, fp) for k, t in enumerate(parent)]
    runs += [run(k, "change", t, fp) for k, t in enumerate(change)]
    summary = bench_pairs.summarize(runs, BETTER)
    op = summary["metrics"]["op_s"]
    assert op["parent"]["min"] == 2.0 and op["parent"]["max"] == 2.6
    assert op["parent"]["median"] == pytest.approx(2.3)
    assert op["parent"]["q1"] == pytest.approx(2.15)
    assert op["parent"]["q3"] == pytest.approx(2.45)
    assert op["parent_iqr"] == pytest.approx(0.3)
    assert op["change"]["median"] == pytest.approx(1.15)
    assert op["median_change_pct"] == pytest.approx(-50.0)
    assert op["pairs_won_by_change"] == 3 and op["n_pairs"] == 4
    assert summary["metrics"]["work_per_s"]["pairs_won_by_change"] == 3
    assert summary["fingerprints_match"]
    assert summary["failed_ops"] == {"parent": 0, "change": 0}


def test_fingerprints_compared_on_the_seeds_both_runs_cover():
    one_seed = {"11": {"checkpoint": "a"}}
    two_seeds = {"11": {"checkpoint": "a"}, "12": {"checkpoint": "b"}}
    same = [run(0, "parent", 1.0, one_seed), run(0, "change", 1.0, two_seeds)]
    assert bench_pairs.summarize(same, BETTER)["fingerprints_match"]
    other = {"11": {"checkpoint": "z"}}
    differ = [run(0, "parent", 1.0, two_seeds), run(0, "change", 1.0, other)]
    assert not bench_pairs.summarize(differ, BETTER)["fingerprints_match"]


def test_unpaired_runs_and_failures():
    fp = {"max_rel_err": {"total": "1e-9"}}
    runs = [run(0, "parent", 1.0, fp), run(0, "change", 0.5, fp, failed=1),
            run(1, "parent", 1.0, fp)]           # pair 1 has no change run
    summary = bench_pairs.summarize(runs, BETTER)
    assert summary["metrics"]["op_s"]["n_pairs"] == 1
    assert summary["failed_ops"] == {"parent": 0, "change": 1}


def test_workdir_is_created_when_missing(tmp_path):
    parent = tmp_path / "new" / "work"
    made = bench_pairs.make_workdir(str(parent))
    assert made.is_dir() and made.parent == parent
    assert bench_pairs.make_workdir(str(parent)) != made


@pytest.mark.parametrize("factor, flagged", [(1.3, True), (1.2, False), (0.8, False)])
def test_beyond_bound_flags_a_median_worse_than_its_bound(factor, flagged):
    # op_s is better lower, work_per_s (100 / op_s) higher: both move together
    fp = {"eval_report.json": "abc"}
    runs = [run(k, "parent", 1.0, fp) for k in range(3)]
    runs += [run(k, "change", factor, fp) for k in range(3)]
    metrics = bench_pairs.summarize(runs, BETTER, {"op_s": 0.25, "work_per_s": 0.2})["metrics"]
    assert metrics["op_s"]["beyond_bound"] is flagged
    # 1/1.3 and 1/1.2 are 23% and 17% fewer ops per second
    assert metrics["work_per_s"]["beyond_bound"] is flagged
    assert not bench_pairs.summarize(runs, BETTER)["metrics"]["op_s"]["beyond_bound"]
