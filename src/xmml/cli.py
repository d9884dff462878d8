"""Command-line front end: gen, train, eval, gradcheck, ablate, sweep.

Every command writes its outputs plus a manifest.json into --out (default:
$XMML_OUT_ROOT/<command> or ./runs/<command>). Any configuration key can be
set in a JSON config file (--config) or as a flag of the same dotted name,
e.g. --train.epochs 10 --weights.lambda2 0.

Exit codes: 0 success, 1 validation/configuration error, 2 runtime or
numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from . import __version__, model
from .bench import (ABLATION_LABELS, grid_overrides, run_ablation, run_sweep,
                    write_ablation_csv, write_sweep_csv)
from .config import (ConfigError, generator_config, load_config_file,
                     parse_override_args, protocol, resolve, train_config)
from .evaluator import Protocol, evaluate
from .gradcheck import DEFAULT_SIZES, LOSS_NAMES, run_all
from .numerics import ProtocolError
from .synthdata import DATASET_FILES, generate_dataset, load_dataset, save_dataset
from .trainer import (TrainingDivergedError, run_training, save_train_log,
                      with_long_schedule)

MANIFEST_SCHEMA = "xmml-manifest v1"
EVAL_CSV_HEADER = "# xmml-eval-csv v1"


def _default_out(command: str) -> Path:
    import os
    root = os.environ.get("XMML_OUT_ROOT", "runs")
    return Path(root) / command


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir: Path, command: str, cfg: dict, seeds: list[int],
                    inputs: list[Path], outputs: list[str], t0: float) -> None:
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "tool_version": __version__,
        "command": command,
        "config": {k: cfg[k] for k in sorted(cfg)},
        "seeds": seeds,
        "inputs": {str(p): _sha256(Path(p)) for p in inputs},
        "outputs": sorted(outputs),
        "wall_clock_sec": round(time.perf_counter() - t0, 3),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _prepare_out(args) -> Path:
    out = Path(args.out) if args.out else _default_out(args.command)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_seed_list(text: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError as e:
        raise ConfigError(f"bad seed list {text!r}: {e}") from e
    if not seeds:
        raise ConfigError("seed list is empty")
    return seeds


def _parse_value_list(text: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as e:
        raise ConfigError(f"bad value list {text!r}: {e}") from e
    if not values:
        raise ConfigError("value list is empty")
    return values


def _parse_sizes(text: str) -> tuple[tuple[int, int], ...]:
    sizes = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            n, d = part.lower().split("x")
            sizes.append((int(n), int(d)))
        except ValueError as e:
            raise ConfigError(f"bad size {part!r} (want NxD, e.g. 4x8): {e}") from e
    if not sizes:
        raise ConfigError("size list is empty")
    return tuple(sizes)


# ---------------------------------------------------------------------------
# commands

def cmd_gen(args, cfg: dict) -> int:
    out = _prepare_out(args)
    t0 = time.perf_counter()
    if args.seed is not None:
        cfg["gen.seed"] = args.seed
    gcfg = generator_config(cfg)
    bundle = generate_dataset(gcfg)
    outputs = save_dataset(out, bundle)
    _write_manifest(out, "gen", cfg, [gcfg.seed], [], outputs, t0)
    print(f"wrote {out}: train={len(bundle.train.samples)} samples, "
          f"test={len(bundle.test.samples)} samples")
    return 0


def cmd_train(args, cfg: dict) -> int:
    out = _prepare_out(args)
    t0 = time.perf_counter()
    if args.seed is not None:
        cfg["train.seed"] = args.seed
    tcfg = train_config(cfg)
    if args.long_schedule:
        tcfg = with_long_schedule(tcfg)
    data_dir = Path(args.data)
    data = load_dataset(data_dir)
    result = run_training(tcfg, data)
    model.save_checkpoint(out / "checkpoint.jsonl", result.encoder_config, result.store)
    save_train_log(out / "train_log.jsonl", result.log)
    inputs = [data_dir / n for n in DATASET_FILES]
    cfg_echo = dict(cfg)
    cfg_echo["train.epochs"] = tcfg.epochs
    cfg_echo["train.decay_epochs"] = list(tcfg.decay_epochs)
    _write_manifest(out, "train", cfg_echo, [tcfg.seed], inputs,
                    ["checkpoint.jsonl", "train_log.jsonl"], t0)
    last = result.log.evals[-1]
    first_loss = result.log.steps[0].breakdown.total
    last_loss = result.log.steps[-1].breakdown.total
    print(f"trained {tcfg.epochs} epochs: loss {first_loss:.4f} -> {last_loss:.4f}")
    print(f"final rank1={last.rank1:.3f} map={last.map:.3f} "
          f"gap_ratio={last.gap_ratio:.3f}")
    return 0


def _eval_csv_row(proto: Protocol, report) -> dict:
    diag = report.diagnostics
    return {"protocol": f"{proto.query_modality}>{proto.gallery_modality}",
            "shots": proto.shots, "seed": proto.seed,
            "rank1": report.rank(1), "rank5": report.rank(5),
            "rank10": report.rank(10), "map": report.map,
            "gap_ratio": diag.get("gap_ratio"),
            "conflict_sensitivity": diag.get("conflict_sensitivity")}


def cmd_eval(args, cfg: dict) -> int:
    import csv

    out = _prepare_out(args)
    t0 = time.perf_counter()
    if args.seed is not None:
        cfg["eval.seed"] = args.seed
    data_dir = Path(args.data)
    data = load_dataset(data_dir)
    split = data.test if args.split == "test" else data.train
    ckpt = Path(args.checkpoint)
    enc_cfg, store = model.load_checkpoint(ckpt)

    shot_modes = ("single", "multi") if cfg["eval.shots"] == "both" else (cfg["eval.shots"],)
    protos = []
    for shots in shot_modes:
        cfg_one = dict(cfg)
        cfg_one["eval.shots"] = shots
        protos.append(protocol(cfg_one))

    reports = []
    for proto in protos:
        report = evaluate(store, split, proto, meta=data.meta)
        reports.append((proto, report))

    fields = ("protocol", "shots", "seed", "rank1", "rank5", "rank10",
              "map", "gap_ratio", "conflict_sensitivity")
    with (out / "eval.csv").open("w", newline="") as fh:
        fh.write(EVAL_CSV_HEADER + "\n")
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for proto, report in reports:
            writer.writerow(_eval_csv_row(proto, report))

    record = [{"protocol": f"{p.query_modality}>{p.gallery_modality}",
               "shots": p.shots, "seed": p.seed,
               "cmc": [float(c) for c in r.cmc], "map": r.map,
               "n_queries": r.n_queries, "n_gallery": r.n_gallery,
               "n_excluded": r.n_excluded,
               "diagnostics": r.diagnostics} for p, r in reports]
    (out / "eval_report.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    inputs = [ckpt] + [data_dir / n for n in DATASET_FILES]
    _write_manifest(out, "eval", cfg, [p.seed for p in protos], inputs,
                    ["eval.csv", "eval_report.json"], t0)
    for proto, report in reports:
        print(f"rank1={report.rank(1):.3f} map={report.map:.3f}")
    return 0


def cmd_gradcheck(args, cfg: dict) -> int:
    out = _prepare_out(args)
    t0 = time.perf_counter()
    names = tuple(args.losses.split(",")) if args.losses else LOSS_NAMES
    unknown = [n for n in names if n not in LOSS_NAMES]
    if unknown:
        raise ConfigError(f"unknown loss name(s): {', '.join(unknown)}; "
                          f"known: {', '.join(LOSS_NAMES)}")
    sizes = _parse_sizes(args.sizes) if args.sizes else DEFAULT_SIZES
    seed = args.seed if args.seed is not None else 0
    if args.corrupt and args.corrupt not in LOSS_NAMES:
        raise ConfigError(f"--corrupt wants one of {', '.join(LOSS_NAMES)}, "
                          f"got {args.corrupt!r}")
    summaries = run_all(names=names, n_batches=args.batches, sizes=sizes,
                        h=args.h, tol=args.tol, seed=seed,
                        corrupt_name=args.corrupt)
    rows = []
    failed = []
    print(f"{'loss':<16} {'batches':>7} {'max_rel_err':>12} status")
    for s in summaries:
        status = "ok" if s.n_failed == 0 else f"FAIL ({s.n_failed} batches)"
        print(f"{s.name:<16} {s.n_batches:>7} {s.max_rel_err:>12.3e} {status}")
        rows.append({"name": s.name, "n_batches": s.n_batches,
                     "max_rel_err": s.max_rel_err, "n_failed": s.n_failed})
        if s.n_failed:
            failed.append(s.name)
    (out / "gradcheck_report.json").write_text(
        json.dumps({"h": args.h, "tol": args.tol, "seed": seed,
                    "results": rows}, indent=2, sort_keys=True) + "\n")
    _write_manifest(out, "gradcheck", cfg, [seed], [],
                    ["gradcheck_report.json"], t0)
    if failed:
        print(f"gradient check failed for: {', '.join(failed)}", file=sys.stderr)
        return 2
    return 0


def cmd_ablate(args, cfg: dict) -> int:
    out = _prepare_out(args)
    t0 = time.perf_counter()
    if args.seed is not None:
        cfg["train.seed"] = args.seed
    tcfg = train_config(cfg)
    if args.long_schedule:
        tcfg = with_long_schedule(tcfg)
    proto = protocol(cfg)
    seeds = _parse_seed_list(args.seeds)
    labels = tuple(args.labels.split(",")) if args.labels else ABLATION_LABELS
    for label in labels:
        try:
            grid_overrides(label)
        except KeyError as e:
            raise ConfigError(str(e.args[0])) from e
    data_dir = Path(args.data)
    data = load_dataset(data_dir)
    cells = run_ablation(data, tcfg, proto, labels=labels, seeds=seeds)
    write_ablation_csv(out / "ablation.csv", cells, tcfg.weights)
    inputs = [data_dir / n for n in DATASET_FILES]
    _write_manifest(out, "ablate", cfg, list(seeds), inputs, ["ablation.csv"], t0)
    by_label: dict[str, list] = {}
    for c in cells:
        by_label.setdefault(c.label, []).append(c)
    for label, group in by_label.items():
        r1 = sum(c.rank1 for c in group) / len(group)
        mp = sum(c.map for c in group) / len(group)
        print(f"{label:<14} rank1={r1:.3f} map={mp:.3f} ({len(group)} seeds)")
    return 0


def cmd_sweep(args, cfg: dict) -> int:
    out = _prepare_out(args)
    t0 = time.perf_counter()
    if args.seed is not None:
        cfg["train.seed"] = args.seed
    tcfg = train_config(cfg)
    if args.long_schedule:
        tcfg = with_long_schedule(tcfg)
    proto = protocol(cfg)
    seeds = _parse_seed_list(args.seeds)
    values = _parse_value_list(args.values)
    data_dir = Path(args.data)
    data = load_dataset(data_dir)
    try:
        cells = run_sweep(data, tcfg, proto, args.param, values, seeds=seeds)
    except KeyError as e:
        raise ConfigError(str(e.args[0])) from e
    write_sweep_csv(out / "sweep.csv", cells, args.param)
    inputs = [data_dir / n for n in DATASET_FILES]
    _write_manifest(out, "sweep", cfg, list(seeds), inputs, ["sweep.csv"], t0)
    for c in cells:
        print(f"{c.label:<14} seed={c.seed} rank1={c.rank1:.3f} map={c.map:.3f}")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing

class _ArgumentParser(argparse.ArgumentParser):
    """argparse that reports usage errors instead of exiting with code 2."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="xmml",
                             description="cross-modality metric learning workbench")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=False, checkpoint=False, schedule=False):
        p.add_argument("--config", help="JSON config file with dotted keys")
        p.add_argument("--seed", type=int, default=None,
                       help="override the command's primary seed")
        p.add_argument("--out", help="output directory")
        if data:
            p.add_argument("--data", required=True,
                           help="dataset directory written by `xmml gen`")
        if checkpoint:
            p.add_argument("--checkpoint", required=True,
                           help="checkpoint file written by `xmml train`")
        if schedule:
            p.add_argument("--long-schedule", action="store_true",
                           help="120 epochs with rate drops at 40 and 70")

    p = sub.add_parser("gen", help="generate a synthetic bimodal dataset")
    common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train the encoder suite")
    common(p, data=True, schedule=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="retrieval evaluation of a checkpoint")
    common(p, data=True, checkpoint=True)
    p.add_argument("--split", choices=("test", "train"), default="test")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference checks of all gradients")
    common(p)
    p.add_argument("--batches", type=int, default=50, help="batches per loss")
    p.add_argument("--h", type=float, default=1e-5, help="finite-difference step")
    p.add_argument("--tol", type=float, default=1e-4, help="relative-error tolerance")
    p.add_argument("--sizes", help="comma list of NxD batch sizes, e.g. 2x4,8x8")
    p.add_argument("--losses", help="comma list of losses to check (default: all)")
    p.add_argument("--corrupt", help="test hook: corrupt this loss's gradient")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablate", help="train the component on/off lattice")
    common(p, data=True, schedule=True)
    p.add_argument("--seeds", default="0,1,2,3,4", help="comma list of train seeds")
    p.add_argument("--labels", help="comma subset of lattice rows "
                                    f"({','.join(ABLATION_LABELS)})")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep", help="metric-vs-value curves for one parameter")
    common(p, data=True, schedule=True)
    p.add_argument("--param", required=True,
                   help="lambda1..lambda4, tau, n_fuse (alias M)")
    p.add_argument("--values", required=True, help="comma list of values")
    p.add_argument("--seeds", default="0", help="comma list of train seeds")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args, rest = parser.parse_known_args(argv)
        overrides = parse_override_args(rest)
        file_cfg = load_config_file(args.config) if args.config else None
        cfg = resolve(file_cfg, overrides)
        return args.func(args, cfg)
    except SystemExit as e:
        # argparse exits 0 for --help/--version; anything else is a usage error
        return 0 if e.code in (0, None) else 1
    except (ConfigError, ValueError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ProtocolError, TrainingDivergedError, ArithmeticError) as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
