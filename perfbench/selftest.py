"""Self-test of the benchmark's tracer; exits 0 when every check holds.

    python3 perfbench/selftest.py [--seed 0] [--seconds 1]

Runs each workload once traced, in this process, and asserts:
  1. every layer a workload names in `traced_layers` records at least one
     call, and every traced function exists;
  2. the `from ... import` bindings of traced functions are patched too;
  3. in the spans written out, no span's children last longer than it does
     (so no layer's self time is negative);
  4. after the run every xmml module attribute is the original object again;
and that every operation passed its correctness check.
"""

from __future__ import annotations

import argparse
import sys

import run
import tracer as tracing

# bindings made by `from ... import` that the wrappers must reach
FROM_IMPORTS = ("xmml.trainer.fuse_multiview", "xmml.trainer.sample_batch",
                "xmml.trainer.total_loss", "xmml.cli.evaluate", "xmml.cli.run_training",
                "xmml.cli.load_dataset", "xmml.bench.evaluate", "xmml.bench.run_training",
                "xmml.gradcheck.identity_loss", "xmml.gradcheck.weighted_triplet_loss",
                "xmml.gradcheck.contrastive_fused", "xmml.gradcheck.distill_loss",
                "xmml.gradcheck.distance_parity_loss", "xmml.gradcheck.fuse_multiview",
                "xmml.gradcheck.total_loss", "xmml.gradcheck.finite_difference_check")


def _check_spans(path) -> list[str]:
    import numpy as np
    spans = np.load(path)
    try:
        tracing.self_times(spans, spans["keys"])
    except tracing.TracerError as e:
        return [f"{path.name}: {e}"]
    return []


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=1.0)
    args = p.parse_args(argv)
    failures = []
    sys.path.insert(0, str(run.ROOT / "src"))
    import xmml.cli  # noqa: F401
    originals = run.snapshot(tracing.package_modules())
    for name in ("train_full", "gradcheck_suite", "eval_large"):
        record, result = run.run(argparse.Namespace(
            workload=name, seed=args.seed, seconds=args.seconds, trace=1))
        if run.snapshot(tracing.package_modules()) != originals:
            failures.append(f"{name}: xmml attributes not restored after the run")
        check = record["tracer_check"]
        failures += [f"{name}: traced function missing: {f}"
                     for f in check["missing_functions"]]
        failures += [f"{name}: layer recorded no call: {k}" for k in check["silent_layers"]]
        failures += [f"{name}: binding not patched: {b}" for b in FROM_IMPORTS
                     if b not in check["patched_bindings"]]
        failures += _check_spans(run.WORK_ROOT / f"spans_{name}.npz")
        if not result["correct"]:
            failures.append(f"{name}: {result['failed']} of {result['attempted']} "
                            f"operations failed their check")
        print(f"{name}: {result['attempted']} operations, "
              f"{len(check['patched_bindings'])} bindings patched", flush=True)
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
