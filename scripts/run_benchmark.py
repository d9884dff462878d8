#!/usr/bin/env python3
"""Lock the reference fixtures: the one writer of tests/fixtures/reference_*.json.

Runs the expected-direction benchmark (baseline / align / align+fusion / full
over BENCHMARK_SEEDS on the seed-0 default generator, at the benchmark rates)
and the first-epoch smoke run, then prints each claim's old -> new margin.
Only when every claim in xmml.bench.CLAIMS holds does it write
reference_margins.json and reference_smoke.json, each through a temporary
file and a rename; otherwise it exits 1 and leaves both fixtures as they were.
Takes no options, so a fixture is only ever what this exact run produced.
"""

import argparse
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from xmml.bench import (BENCHMARK_SEEDS, BENCHMARK_TRAIN_OVERRIDES, CLAIMS,
                        benchmark_train_config, claim_holds, run_direction_benchmark)
from xmml.evaluator import Protocol
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


def _write(path: Path, record: dict) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(record, indent=2, sort_keys=True, allow_nan=False) + "\n")
    os.replace(tmp, path)


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    margins_path = FIXTURES / "reference_margins.json"
    smoke_path = FIXTURES / "reference_smoke.json"

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

    print(f"benchmark wall clock: {wall:.1f}s")
    for label, m in out["means"].items():
        print(f"  {label:<14} rank1={m['rank1']:.4f} map={m['map']:.4f} "
              f"gap={m['gap_ratio']:.4f} conflict={m['conflict_sensitivity']:.5f}")
    print(f"  untrained gap ratio: {out['untrained_gap_ratio']!r}")
    print(f"  smoke: step0_total={smoke['step0_total']!r} "
          f"after_epoch1_total={smoke['after_epoch1_total']!r}")

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
    print(f"locked {margins_path.name} and {smoke_path.name} in {FIXTURES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
