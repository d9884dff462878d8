#!/usr/bin/env python3
"""Lock the reference fixtures: the one writer of tests/fixtures/reference_*.json.

Runs the expected-direction benchmark (baseline / align / align+fusion / full
over BENCHMARK_SEEDS on the seed-0 default generator, at the benchmark rates),
the first-epoch smoke run and the fingerprint runs, then prints each claim's
old -> new margin and each fingerprint that changed. Only when every claim in
xmml.bench.CLAIMS holds does it write reference_margins.json,
reference_smoke.json and reference_fingerprints.json, each through a
temporary file and a rename; otherwise it exits 1 and leaves the fixtures as
they were. Takes no options, so a fixture is only ever what this exact run
produced.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from xmml import cli
from xmml.bench import (BENCHMARK_SEEDS, BENCHMARK_TRAIN_OVERRIDES, CLAIMS,
                        benchmark_train_config, claim_holds, run_direction_benchmark)
from xmml.evaluator import Protocol
from xmml.gradcheck import run_all
from xmml.synthdata import GeneratorConfig, generate_dataset
from xmml.trainer import TrainConfig, run_training

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"
GENERATOR_SEED = 0


def smoke_record(data) -> dict:
    """The first-epoch loss trajectory of a default-config run (seed 0)."""
    result = run_training(TrainConfig(epochs=1), data)
    totals = [s.breakdown.total for s in result.log.steps]
    return {
        "step0_total": totals[0],
        "after_epoch1_total": sum(totals[-5:]) / 5,
        "definition": ("default train config limited to 1 epoch, seed 0, on the "
                       "seed-0 default dataset; after_epoch1_total is the mean "
                       "total over the epoch's last five steps"),
    }


# every switch of the objective on, beside the default config
SWITCHES = ["--weights.n_fuse", "3", "--weights.cross_modal_fusion", "true",
            "--weights.distill_text", "false"]


def environment() -> dict:
    """What the digests may depend on beyond the code: numpy, the BLAS it
    was built with, and the CPU model."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        cpu = next(line.split(":", 1)[1].strip()
                   for line in Path("/proc/cpuinfo").read_text().splitlines()
                   if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor()
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "cpu_model": cpu}


def fingerprints(work: Path) -> dict:
    """Digests of short runs on the seed-0 default data, made in `work`.
    Trajectory: checkpoint.jsonl and train_log.jsonl of a 3-epoch `xmml
    train` at the benchmark rates, at the default config and with SWITCHES,
    and the max_rel_err reprs of gradcheck.run_all(n_batches=6, seed=123).
    Format, kept apart: eval_report.json of `xmml eval --eval.shots both` on
    the default checkpoint, ablation.csv of a 1-epoch `xmml ablate --seeds 0`,
    and sweep.csv of a 1-epoch `xmml sweep --param M --values 0,1 --seeds 0`."""
    data = work / "data"
    rates = [arg for key, value in sorted(BENCHMARK_TRAIN_OVERRIDES.items())
             for arg in (f"--train.{key}", repr(value))]
    runs = {"default": [], "switches": SWITCHES}
    commands = [["gen", "--out", data]]
    commands += [["train", "--data", data, "--out", work / name, "--train.epochs", "3",
                  *rates, *flags] for name, flags in runs.items()]
    commands += [["eval", "--data", data, "--checkpoint", work / "default" / "checkpoint.jsonl",
                  "--out", work / "eval", "--eval.shots", "both"],
                 ["ablate", "--data", data, "--out", work / "ablate", "--seeds", "0",
                  "--train.epochs", "1"],
                 ["sweep", "--data", data, "--out", work / "sweep", "--param", "M",
                  "--values", "0,1", "--seeds", "0", "--train.epochs", "1"]]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in commands:
            argv = [str(a) for a in argv]
            if cli.main(argv) != 0:
                raise RuntimeError(f"xmml {' '.join(argv)} failed")
        summaries = run_all(n_batches=6, seed=123)

    def sha(path: Path) -> str:
        return hashlib.sha256(path.read_bytes()).hexdigest()

    return {
        "trajectory": {**{f"{name}/{artifact}": sha(work / name / artifact) for name in runs
                          for artifact in ("checkpoint.jsonl", "train_log.jsonl")},
                       **{f"gradcheck/{s.name}": repr(float(s.max_rel_err)) for s in summaries}},
        "format": {"eval_report.json": sha(work / "eval" / "eval_report.json"),
                   "ablation.csv": sha(work / "ablate" / "ablation.csv"),
                   "sweep.csv": sha(work / "sweep" / "sweep.csv")},
        "environment": environment(),
    }


def _write(path: Path, record: dict) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(record, indent=2, sort_keys=True, allow_nan=False) + "\n")
    os.replace(tmp, path)


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    margins_path = FIXTURES / "reference_margins.json"
    smoke_path = FIXTURES / "reference_smoke.json"
    prints_path = FIXTURES / "reference_fingerprints.json"

    data = generate_dataset(GeneratorConfig(seed=GENERATOR_SEED))
    train_cfg = benchmark_train_config()
    t0 = time.perf_counter()
    out = run_direction_benchmark(data, train_cfg, Protocol(), seeds=BENCHMARK_SEEDS)
    wall = time.perf_counter() - t0
    margins = {
        "margins": out["margins"],
        "means": out["means"],
        "untrained_gap_ratio": out["untrained_gap_ratio"],
        "seeds": list(BENCHMARK_SEEDS),
        "generator_seed": GENERATOR_SEED,
        "train_overrides": BENCHMARK_TRAIN_OVERRIDES,
        "train_config": {k: v for k, v in asdict(train_cfg).items() if k != "weights"},
    }
    smoke = smoke_record(data)
    with tempfile.TemporaryDirectory() as work:
        prints = fingerprints(Path(work))

    print(f"benchmark wall clock: {wall:.1f}s")
    for label, m in out["means"].items():
        print(f"  {label:<14} rank1={m['rank1']:.4f} map={m['map']:.4f} "
              f"gap={m['gap_ratio']:.4f} conflict={m['conflict_sensitivity']:.5f}")
    print(f"  untrained gap ratio: {out['untrained_gap_ratio']!r}")
    print(f"  smoke: step0_total={smoke['step0_total']!r} "
          f"after_epoch1_total={smoke['after_epoch1_total']!r}")

    old_prints = json.loads(prints_path.read_text()) if prints_path.exists() else {}
    for group in ("trajectory", "format", "environment"):
        for key, value in prints[group].items():
            if old_prints.get(group, {}).get(key) != value:
                print(f"  fingerprint {group} {key}: "
                      f"{old_prints.get(group, {}).get(key, '-')} -> {value}")

    old = json.loads(margins_path.read_text())["margins"] if margins_path.exists() else {}
    print("\n| claim | locked | new |\n|---|---|---|")
    for key in CLAIMS:
        print(f"| {key} | {old.get(key, '-')} | {out['margins'][key]} |")
    failed = [key for key in CLAIMS if not claim_holds(out["margins"][key])]
    for key, text in CLAIMS.items():
        print(f"  [{'FAIL' if key in failed else 'PASS'}] {text}: "
              f"margin {out['margins'][key]:+.5f}")
    if failed:
        print(f"not locked: {', '.join(failed)} failed; the fixtures are unchanged",
              file=sys.stderr)
        return 1
    _write(margins_path, margins)
    _write(smoke_path, smoke)
    _write(prints_path, prints)
    print(f"locked {margins_path.name}, {smoke_path.name} and {prints_path.name} "
          f"in {FIXTURES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
