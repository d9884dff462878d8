"""xmml benchmark: closed loop, one client, one in-process operation at a time.

    python3 perfbench/run.py --workload train_full --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Workloads (see BENCHMARK.json for why each
was chosen):

  train_full       one `xmml train` at the default data size and schedule
  gradcheck_suite  one `gradcheck.run_all` over all eight families
  eval_large       one `xmml eval --eval.shots both` on 512 test identities

The workload seed derives the generator and training seeds; the program
gets only the generated inputs. Operations run back to back until the next
one would end past --seconds (at least the workload's minimum count), and
every operation's output is checked; a failed check or an exception counts
the operation as failed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, tracing off:
  setup_s      median wall time of several set-ups, each in a fresh process:
               interpreter start and program imports, dataset generation and
               write; eval_large also trains its checkpoint
  op_s         median wall time of one operation
  work_per_s   work units done divided by operation wall time: train
               steps, finite-difference loss evaluations, or ranked queries
  peak_rss_mb  peak resident set of the process
Every operation's time is kept in the run record. On the shared 2-vCPU Xeon
virtual machine this was sized on, the CPU itself slows by up to 50% for
spells of tens of seconds (a fixed kernel took 39-97 ms), so run-to-run
spreads of 10-25% in op_s and work_per_s are the machine, not the program.

--trace 1 wraps xmml's layer functions (tracer.py) and reports the per-layer
metrics: one traced set-up plus the mean of one traced operation. Its second
operation runs untraced (the first also warms caches), so trace.op_s -
trace.untraced_op_s is the tracing overhead.

The last line of stdout is the result JSON; the line before it is the run
record: machine, every operation's time and check, the per-workload figures
(train_run_s, gradcheck_s, eval_s and their rates, test rank-1 and mAP) and
the fingerprints that tell a bit-preserving change from a trajectory-changing
one. Both lines are also written to .perfbench_work/run_<workload>_trace<t>.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# BLAS threads are pinned before numpy loads: one client, one core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"

SETUP, OP, OTHER = 0, 1, 2   # tracer phases


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: make the workload's inputs in this directory, then exit
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def snapshot(modules) -> dict:
    """Every function and class constructor bound in the xmml modules."""
    out = {}
    for mod in modules:
        for name, value in vars(mod).items():
            if callable(value):
                out[(mod.__name__, name)] = value
                if isinstance(value, type) and "__init__" in value.__dict__:
                    out[(mod.__name__, name, "__init__")] = value.__dict__["__init__"]
    return out


def _run_ops(wl, seconds: float, tracer) -> list[dict]:
    """The closed loop. With a tracer, operation 1 runs with it suspended.

    A failed operation ends the loop once the minimum count is reached.
    """
    min_ops = wl.min_ops + (1 if tracer else 0)
    ops = []
    start = time.perf_counter()
    while True:
        i = len(ops)
        untraced_ref = tracer is not None and i == 1
        with tracer.suspended() if untraced_ref else contextlib.nullcontext():
            if tracer:
                tracer.current_phase = OP
            error = None
            cpu0 = resource.getrusage(resource.RUSAGE_SELF)
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    wl.op(i)
            except Exception as e:  # an operation that raises is a failed operation
                error = f"{type(e).__name__}: {e}"
            dt = time.perf_counter() - t0
            cpu1 = resource.getrusage(resource.RUSAGE_SELF)
            if tracer:
                tracer.current_phase = OTHER
        if error is None:
            try:
                problems = wl.check(i)
                units = wl.work_units(i) if not problems else 0
            except Exception as e:  # an unreadable output is a failed check
                problems, units = [f"check raised {type(e).__name__}: {e}"], 0
        else:
            problems, units = [error], 0
        ops.append({"i": i, "seconds": dt, "traced": tracer is not None and not untraced_ref,
                    "user_s": cpu1.ru_utime - cpu0.ru_utime,
                    "sys_s": cpu1.ru_stime - cpu0.ru_stime,
                    "work_units": units, "problems": problems})
        elapsed = time.perf_counter() - start
        typical = statistics.median(o["seconds"] for o in ops)
        if len(ops) >= min_ops and (elapsed + typical > seconds or problems):
            return ops


def _timed_setups(args, work: Path, reps: int) -> list[float]:
    """Wall times of `reps` set-ups, each in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only", str(work)]
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - t)
    return times


def _end_to_end(ops, setup_times) -> dict:
    good = [o for o in ops if not o["problems"]] or ops
    return {
        "setup_s": statistics.median(setup_times),
        "op_s": statistics.median(o["seconds"] for o in good),
        "work_per_s": sum(o["work_units"] for o in good) / sum(o["seconds"] for o in good),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _per_layer(tracing, tracer, wl, ops, names) -> tuple[dict, dict]:
    traced = [o for o in ops if o["traced"]]
    summary = tracer.summary(len(traced), SETUP, OP)
    values = tracing.per_layer_metrics(
        summary, [n for n in names if not n.startswith("trace.")])
    n_op_spans = sum(1 for p in tracer.phase if p == OP)
    values["trace.op_s"] = statistics.median(o["seconds"] for o in traced)
    values["trace.untraced_op_s"] = ops[1]["seconds"]
    values["trace.spans_per_op"] = n_op_spans / len(traced)
    check = {"missing_functions": tracer.missing,
             "silent_layers": [k for k in wl.traced_layers
                               if summary.get(k, {}).get("calls", 0) == 0],
             "patched_bindings": tracer.bindings}
    return values, check


def run(args) -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import machine
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"known: {', '.join(workloads.WORKLOADS)}")
    modules = tracing.package_modules()
    before = snapshot(modules)
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    tracer = tracing.Tracer() if args.trace else None
    try:
        if tracer:
            tracer.install()
            tracer.current_phase = SETUP
            t = time.perf_counter()
            wl.setup(tracer)
            setup_times = [time.perf_counter() - t]
            tracer.current_phase = OTHER
        else:
            setup_times = _timed_setups(args, work, wl.setup_reps)
        ops = _run_ops(wl, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
        wl.close()
        shutil.rmtree(work, ignore_errors=True)
    if snapshot(modules) != before:
        raise tracing.TracerError("xmml functions differ from the originals after the run")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": machine.machine_record(),
              "setup_times_s": setup_times,
              "ops": ops, "workload_record": wl.report()}
    if tracer:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values, record["tracer_check"] = _per_layer(tracing, tracer, wl, ops, names)
        _save_spans(tracer, WORK_ROOT / f"spans_{args.workload}.npz")
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = _end_to_end(ops, setup_times)
        times = [o["seconds"] for o in ops]
        record["named"] = {
            wl.op_metric: {"value": values["op_s"], "min": min(times), "max": max(times),
                           "n": len(times), "unit": "s"},
            wl.rate_metric[0]: {"value": values["work_per_s"], "unit": wl.rate_metric[1]},
        }
    if set(values) != set(names):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {names}")
    failed = sum(1 for o in ops if o["problems"])
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": {n: {"value": values[n], "unit": units[n]} for n in names}}
    return record, result


def _save_spans(tracer, path: Path) -> None:
    import numpy as np
    np.savez_compressed(path, keys=np.array(tracer.keys), **tracer.spans())


def _setup_only(args) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, Path(args.setup_only))
    try:
        wl.setup()
    finally:
        wl.close()


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.setup_only:
        _setup_only(args)
        return 0
    try:
        record, result = run(args)
    except Exception:  # no result line: the run could not measure anything
        traceback.print_exc()
        return 2
    lines = [json.dumps(record, sort_keys=True, default=str), json.dumps(result)]
    (WORK_ROOT / f"run_{args.workload}_trace{args.trace}.jsonl").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
