#!/usr/bin/env python3
"""Record small reference values used by the regression tests.

Currently: the first-epoch loss trajectory of a default-config run (seed 0)
on the default dataset — step-0 total and the mean total over the last five
steps of the first epoch — written to tests/fixtures/reference_smoke.json.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from xmml.synthdata import GeneratorConfig, generate_dataset
from xmml.trainer import TrainConfig, run_training


def main() -> int:
    repo = Path(__file__).resolve().parent.parent
    fixture = repo / "tests" / "fixtures" / "reference_smoke.json"
    fixture.parent.mkdir(parents=True, exist_ok=True)

    data = generate_dataset(GeneratorConfig(seed=0))
    cfg = replace(TrainConfig(), epochs=1)
    result = run_training(cfg, data)
    totals = [s.breakdown.total for s in result.log.steps]
    record = {
        "step0_total": totals[0],
        "after_epoch1_total": sum(totals[-5:]) / 5,
        "definition": ("default train config limited to 1 epoch, seed 0, on the "
                       "seed-0 default dataset; after_epoch1_total is the mean "
                       "total over the epoch's last five steps"),
    }
    fixture.write_text(json.dumps(record, indent=2, sort_keys=True, allow_nan=False) + "\n")
    print(json.dumps(record, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
