"""scripts/run_benchmark.py, the one writer of tests/fixtures/reference_*.json:
it takes no options, writes the fixtures only when every claim holds, and
writes each through a temporary file. The benchmark, the smoke run and the
fingerprint runs are stubbed; the fixtures live in a temporary directory.
The committed fingerprints are recomputed and compared exactly."""

from __future__ import annotations

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from xmml.bench import BENCHMARK_SEEDS, BENCHMARK_TRAIN_OVERRIDES, CLAIMS

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "run_benchmark.py"
_SPEC = importlib.util.spec_from_file_location("run_benchmark", _PATH)
run_benchmark = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run_benchmark)

COMMITTED = Path(__file__).resolve().parent / "fixtures"
NAMES = ("reference_margins.json", "reference_smoke.json", "reference_fingerprints.json")
PASSING = {"rank1_full_vs_baseline": 0.25, "map_fusion_vs_align": 0.01,
           "conflict_parity_gain": 0.0004, "gap_shrink": 0.19}
MEANS = {"full": {"rank1": 0.34, "map": 0.34, "gap_ratio": 1.49,
                  "conflict_sensitivity": 0.097}}
SMOKE = {"step0_total": 13.5, "after_epoch1_total": 12.5, "definition": "stub"}
PRINTS = {"trajectory": {"default/checkpoint.jsonl": "ab"}, "format": {"ablation.csv": "cd"},
          "environment": {"numpy": "stub"}}


@pytest.fixture
def fixtures(monkeypatch, tmp_path):
    """A copy of the committed fixtures, which the script writes instead."""
    for name in NAMES:
        shutil.copy(COMMITTED / name, tmp_path / name)
    monkeypatch.setattr(run_benchmark, "FIXTURES", tmp_path)
    monkeypatch.setattr(run_benchmark, "generate_dataset", lambda cfg: "data")
    monkeypatch.setattr(run_benchmark, "smoke_record", lambda data: dict(SMOKE))
    monkeypatch.setattr(run_benchmark, "fingerprints", lambda work: PRINTS)
    return tmp_path


def stub_benchmark(monkeypatch, margins):
    def run(data, train_cfg, protocol, seeds):
        assert seeds == BENCHMARK_SEEDS
        return {"margins": dict(margins), "means": MEANS, "untrained_gap_ratio": 1.68}
    monkeypatch.setattr(run_benchmark, "run_direction_benchmark", run)


def contents(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_a_failing_claim_writes_nothing(monkeypatch, fixtures, capsys):
    stub_benchmark(monkeypatch, {**PASSING, "conflict_parity_gain": -1e-4})
    before = contents(fixtures)
    assert run_benchmark.main([]) == 1
    assert contents(fixtures) == before
    out, err = capsys.readouterr()
    assert out.count("[PASS]") == 3 and out.count("[FAIL]") == 1
    assert "conflict_parity_gain failed; the fixtures are unchanged" in err


@pytest.mark.parametrize("argv", [["--seeds", "0"], ["--fixture", "margins.json"]])
def test_any_option_exits_2_before_training(monkeypatch, fixtures, capsys, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("an option reached the benchmark")

    monkeypatch.setattr(run_benchmark, "run_direction_benchmark", no_work)
    before = contents(fixtures)
    with pytest.raises(SystemExit) as exit_info:
        run_benchmark.main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert contents(fixtures) == before


def test_passing_claims_lock_both_fixtures(monkeypatch, fixtures, capsys):
    locked = json.loads((fixtures / NAMES[0]).read_text())["margins"]
    stub_benchmark(monkeypatch, PASSING)
    assert run_benchmark.main([]) == 0
    assert sorted(p.name for p in fixtures.iterdir()) == sorted(NAMES)

    margins = json.loads((fixtures / NAMES[0]).read_text())
    assert margins["margins"] == PASSING
    assert margins["means"] == MEANS
    assert margins["untrained_gap_ratio"] == 1.68
    assert margins["seeds"] == list(BENCHMARK_SEEDS)
    assert margins["generator_seed"] == 0
    assert margins["train_overrides"] == BENCHMARK_TRAIN_OVERRIDES
    assert "wall_clock_sec" not in margins
    assert json.loads((fixtures / NAMES[1]).read_text()) == SMOKE
    assert json.loads((fixtures / NAMES[2]).read_text()) == PRINTS

    out = capsys.readouterr().out
    assert "| claim | locked | new |" in out
    for key in CLAIMS:
        assert f"| {key} | {locked[key]} | {PASSING[key]} |" in out
    assert out.count("[PASS]") == 4 and "[FAIL]" not in out
    assert "benchmark wall clock:" in out

    # with no timing in the fixture, locking the same results rewrites its bytes
    first = contents(fixtures)
    assert run_benchmark.main([]) == 0
    assert contents(fixtures) == first


def test_committed_margins_fixture_is_the_lock_commands_run():
    record = json.loads((COMMITTED / NAMES[0]).read_text())
    assert record["seeds"] == list(BENCHMARK_SEEDS)
    assert record["generator_seed"] == 0
    assert record["train_overrides"] == BENCHMARK_TRAIN_OVERRIDES
    assert set(record["margins"]) == set(CLAIMS)


def test_fingerprints_equal_the_locked_ones(tmp_path):
    # bit-preservation: a change that moves any trajectory or artifact by one
    # ulp or byte fails here; a relock re-records them with the margins
    locked = json.loads((COMMITTED / NAMES[2]).read_text())
    got = run_benchmark.fingerprints(tmp_path)
    differ = sorted(f"{group} {name}" for group in ("trajectory", "format")
                    for name in locked[group].keys() | got[group].keys()
                    if locked[group].get(name) != got[group].get(name))
    environment = {key: f"{value!r} locked, {got['environment'].get(key)!r} here"
                   for key, value in locked["environment"].items()
                   if got["environment"].get(key) != value}
    assert not differ, (f"differ from the locked fingerprints: {', '.join(differ)}; "
                        f"environment differences: {environment or 'none'}")
