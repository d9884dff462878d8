#!/usr/bin/env python3
"""Run the expected-direction benchmark and lock its margins into the test
fixtures.

Trains baseline / align / align+fusion / full over five seeds on the default
generator at the desk schedule, checks the four qualitative claims, and
writes the observed margins to tests/fixtures/reference_margins.json, which
the acceptance suite treats as the locked reference.
"""

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from xmml.bench import (BENCHMARK_SEEDS, BENCHMARK_TRAIN_OVERRIDES,
                        benchmark_train_config, run_direction_benchmark)
from xmml.evaluator import Protocol
from xmml.synthdata import GeneratorConfig, generate_dataset
from xmml.trainer import TrainConfig

CLAIMS = (
    ("rank1_full_vs_baseline", "full objective >= baseline on mean rank-1"),
    ("map_fusion_vs_align", "alignment+fusion >= alignment on mean mAP"),
    ("conflict_parity_gain", "parity strictly lowers conflict sensitivity"),
    ("gap_shrink", "training shrinks the modality gap vs a fresh encoder"),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fixture", default=None,
                        help="fixture path (default: tests/fixtures/reference_margins.json)")
    parser.add_argument("--seeds", default=",".join(str(s) for s in BENCHMARK_SEEDS))
    args = parser.parse_args(argv)
    try:
        seeds = tuple(int(s) for s in args.seeds.split(","))
    except ValueError:
        parser.error(f"--seeds: every entry of {args.seeds!r} must be an integer")
    repeated = [s for i, s in enumerate(seeds) if s in seeds[:i]]
    if repeated:
        parser.error(f"--seeds: seed {repeated[0]} repeats in {args.seeds!r}")

    repo = Path(__file__).resolve().parent.parent
    fixture = Path(args.fixture) if args.fixture else (
        repo / "tests" / "fixtures" / "reference_margins.json")

    data = generate_dataset(GeneratorConfig(seed=0))
    train_cfg = benchmark_train_config()
    t0 = time.perf_counter()
    out = run_direction_benchmark(data, train_cfg, Protocol(), seeds=seeds)
    wall = time.perf_counter() - t0

    print(f"benchmark wall clock: {wall:.1f}s ({len(out['cells'])} training runs)")
    for label, m in out["means"].items():
        print(f"  {label:<14} rank1={m['rank1']:.4f} map={m['map']:.4f} "
              f"gap={m['gap_ratio']:.4f} conflict={m['conflict_sensitivity']:.5f}")
    print(f"  untrained gap ratio: {out['untrained_gap_ratio']:.4f}")

    ok = True
    for key, text in CLAIMS:
        margin = out["margins"][key]
        holds = margin > 0
        ok = ok and holds
        print(f"  [{'PASS' if holds else 'FAIL'}] {text}: margin {margin:+.5f}")

    fixture.parent.mkdir(parents=True, exist_ok=True)
    record = {
        "margins": out["margins"],
        "means": out["means"],
        "untrained_gap_ratio": out["untrained_gap_ratio"],
        "seeds": list(seeds),
        "generator_seed": 0,
        "train_overrides": BENCHMARK_TRAIN_OVERRIDES,
        "train_config": {k: v for k, v in asdict(benchmark_train_config()).items()
                         if k != "weights"},
        "wall_clock_sec": round(wall, 1),
    }
    fixture.write_text(json.dumps(record, indent=2, sort_keys=True, allow_nan=False) + "\n")
    print(f"margins locked into {fixture}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
