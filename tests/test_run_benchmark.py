"""scripts/run_benchmark.py rejects a bad --seeds list before anything trains."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "run_benchmark.py"
_SPEC = importlib.util.spec_from_file_location("run_benchmark", _PATH)
run_benchmark = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run_benchmark)


@pytest.mark.parametrize("seeds, message", [
    ("0,,1", "every entry of '0,,1' must be an integer"),
    ("0,a", "every entry of '0,a' must be an integer"),
    ("0,1,0", "seed 0 repeats in '0,1,0'"),
])
def test_bad_seed_list_exits_before_training(monkeypatch, tmp_path, capsys, seeds, message):
    def no_work(*args, **kwargs):
        raise AssertionError("a bad --seeds list reached the benchmark")

    monkeypatch.setattr(run_benchmark, "generate_dataset", no_work)
    monkeypatch.setattr(run_benchmark, "run_direction_benchmark", no_work)
    fixture = tmp_path / "margins.json"
    with pytest.raises(SystemExit) as exit_info:
        run_benchmark.main(["--seeds", seeds, "--fixture", str(fixture)])
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
    assert not fixture.exists()
