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
from dataclasses import asdict
from pathlib import Path

import numpy as np

try:
    import resource
except ImportError:   # not a Unix platform: manifests omit peak_rss_mb
    resource = None

from . import __version__, model
from .bench import (ABLATION_GRID, ABLATION_LABELS, run_cells, summarize, sweep_grid,
                    write_ablation_csv, write_sweep_csv)
from .config import (LONG_SCHEDULE, ConfigError, Settings, load_config_file,
                     parse_override_args, resolve)
from .evaluator import REPORTED_METRICS, Protocol, as_written, evaluate, write_csv
from .gradcheck import DEFAULT_SIZES, LOSS_NAMES, run_all
from .numerics import ProtocolError, _seed_word
from .synthdata import generate_dataset, load_dataset, save_dataset
from .trainer import TrainingDivergedError, run_training, save_train_log

MANIFEST_SCHEMA = "xmml-manifest v1"
EVAL_CSV_FIELDS = ("protocol", "shots", "seed") + REPORTED_METRICS


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


def _peak_rss_mb() -> float:
    """The process's resident-set high-water mark so far, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # bytes on macOS, KiB on Linux and the BSDs
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def _write_manifest(out_dir: Path, command: str, cfg: dict, seeds: list[int],
                    inputs: list[Path], outputs: list[str], t0: float,
                    timings: dict[str, float] | None = None) -> None:
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
    if timings is not None:
        # phase wall times and the memory peak live here, outside the
        # byte-identical artifacts
        manifest["phase_sec"] = {k: round(v, 4) for k, v in timings.items()}
        if resource is not None:
            manifest["peak_rss_mb"] = round(_peak_rss_mb(), 1)
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _prepare_out(args) -> Path:
    """Create the output directory. Commands call this just before their
    first write, so a run that fails validation or the work leaves none."""
    out = Path(args.out) if args.out else _default_out(args.command)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_data(args, splits: tuple[str, ...] = ("train", "test")):
    """The --data bundle with the named splits, and the files read: the
    inputs a manifest hashes."""
    data_dir = Path(args.data)
    return (load_dataset(data_dir, splits),
            [data_dir / f"{name}.jsonl" for name in splits] + [data_dir / "meta.json"])


def _parse_list(text: str, what: str, convert=str, repeats: bool = False,
                known: tuple[str, ...] | None = None) -> tuple:
    """The entries of a comma list, each stripped and passed to `convert`;
    empty entries are skipped. Raises ConfigError for an entry `convert`
    rejects or not in `known` (when given), an empty list, or, unless
    `repeats`, an entry that repeats."""
    items = []
    for part in text.split(","):
        part = part.strip()
        if part:
            try:
                items.append(convert(part))
            except ValueError as e:
                raise ConfigError(f"bad {what} {part!r}: {e}") from e
    if not items:
        raise ConfigError(f"{what} list is empty")
    unknown = [x for x in items if known is not None and x not in known]
    if unknown:
        raise ConfigError(f"unknown {what}(s): {', '.join(unknown)}; "
                          f"known: {', '.join(known)}")
    if not repeats:
        repeated = [x for i, x in enumerate(items) if x in items[:i]]
        if repeated:
            raise ConfigError(f"{what} {repeated[0]} repeats in {text!r}")
    return tuple(items)


def _seed(text: str) -> int:
    """A train seed: an integer in [0, 2**64)."""
    return _seed_word("seed", int(text))


def _size(text: str) -> tuple[int, int]:
    """An NxD batch size, e.g. 4x8."""
    n, _, d = text.lower().partition("x")
    return int(n), int(d)


# ---------------------------------------------------------------------------
# commands

def cmd_gen(args, run: Settings) -> int:
    t0 = time.perf_counter()
    bundle = generate_dataset(run.gen)
    out = _prepare_out(args)
    outputs = save_dataset(out, bundle)
    _write_manifest(out, "gen", run.values, [run.gen.seed], [], outputs, t0)
    print(f"wrote {out}: train={len(bundle.train)} samples, test={len(bundle.test)} samples")
    return 0


def cmd_train(args, run: Settings) -> int:
    t0 = time.perf_counter()
    tcfg = run.train
    data, inputs = _load_data(args)
    timings: dict[str, float] = {}
    result = run_training(tcfg, data, timings=timings)
    out = _prepare_out(args)
    model.save_checkpoint(out / "checkpoint.jsonl", result.encoder_config, result.store)
    save_train_log(out / "train_log.jsonl", result.log)
    _write_manifest(out, "train", run.values, [tcfg.seed], inputs,
                    ["checkpoint.jsonl", "train_log.jsonl"], t0, timings)
    last = result.log.evals[-1]
    first_loss = result.log.steps[0].breakdown.total
    last_loss = result.log.steps[-1].breakdown.total
    print(f"trained {tcfg.epochs} epochs: loss {first_loss:.4f} -> {last_loss:.4f}")
    print(f"final rank1={last['rank1']:.3f} map={last['map']:.3f} "
          f"gap_ratio={last['gap_ratio']:.3f}")
    return 0


def _protocol_fields(proto: Protocol) -> dict:
    return {"protocol": f"{proto.query_modality}>{proto.gallery_modality}",
            "shots": proto.shots, "seed": proto.seed}


def cmd_eval(args, run: Settings) -> int:
    t0 = time.perf_counter()
    data, inputs = _load_data(args, (args.split,))
    split = getattr(data, args.split)
    ckpt = Path(args.checkpoint)
    enc_cfg, store = model.load_checkpoint(ckpt)

    timings: dict[str, float] = {}
    reports = evaluate(store, split, run.protocols, meta=data.meta, timings=timings)
    out = _prepare_out(args)
    write_csv(out / "eval.csv", "eval", EVAL_CSV_FIELDS,
              [{**_protocol_fields(r.protocol), **r.metrics()} for r in reports])

    record = [{**_protocol_fields(r.protocol),
               "cmc": [float(c) for c in r.cmc], "map": r.map,
               "n_queries": r.n_queries, "n_gallery": r.n_gallery,
               "n_excluded": r.n_excluded,
               "diagnostics": as_written(r.diagnostics)} for r in reports]
    (out / "eval_report.json").write_text(
        json.dumps(record, indent=2, sort_keys=True, allow_nan=False) + "\n")

    _write_manifest(out, "eval", run.values, [p.seed for p in run.protocols], [ckpt] + inputs,
                    ["eval.csv", "eval_report.json"], t0, timings)
    for r in reports:
        print(f"rank1={r.rank(1):.3f} map={r.map:.3f}")
    return 0


def cmd_gradcheck(args, run: Settings) -> int:
    t0 = time.perf_counter()
    names = (_parse_list(args.losses, "loss name", known=LOSS_NAMES) if args.losses
             else LOSS_NAMES)
    # a repeated size weights the batch rotation
    sizes = (_parse_list(args.sizes, "NxD size", _size, repeats=True) if args.sizes
             else DEFAULT_SIZES)
    timings: dict[str, float] = {}
    summaries = run_all(names=names, n_batches=args.batches, sizes=sizes,
                        h=args.h, tol=args.tol, seed=args.seed, weights=run.train.weights,
                        timings=timings)
    print(f"{'loss':<16} {'batches':>7} {'max_rel_err':>12} status")
    for s in summaries:
        status = "ok" if s.n_failed == 0 else f"FAIL ({s.n_failed} batches)"
        print(f"{s.name:<16} {s.n_batches:>7} {s.max_rel_err:>12.3e} {status}")
    non_finite = [s.name for s in summaries if not np.isfinite(s.max_rel_err)]
    if non_finite:
        # a non-finite loss makes max_rel_err inf, which strict JSON cannot hold
        raise FloatingPointError(f"non-finite loss in: {', '.join(non_finite)}")
    out = _prepare_out(args)
    (out / "gradcheck_report.json").write_text(
        json.dumps({"h": args.h, "tol": args.tol, "seed": args.seed,
                    "results": [asdict(s) for s in summaries]},
                   indent=2, sort_keys=True, allow_nan=False) + "\n")
    _write_manifest(out, "gradcheck", run.values, [args.seed], [],
                    ["gradcheck_report.json"], t0, timings)
    failed = [s.name for s in summaries if s.n_failed]
    if failed:
        print(f"gradient check failed for: {', '.join(failed)}", file=sys.stderr)
        return 2
    return 0


def cmd_ablate(args, run: Settings) -> int:
    t0 = time.perf_counter()
    seeds = _parse_list(args.seeds, "seed", _seed)
    labels = (_parse_list(args.labels, "ablation label", known=ABLATION_LABELS)
              if args.labels else ABLATION_LABELS)
    data, inputs = _load_data(args)
    cells = run_cells(data, run.train, run.protocols[0],
                      {label: ABLATION_GRID[label] for label in labels}, seeds)
    out = _prepare_out(args)
    write_ablation_csv(out / "ablation.csv", cells)
    _write_manifest(out, "ablate", run.values, list(seeds), inputs, ["ablation.csv"], t0)
    for label, m in summarize(cells).items():
        print(f"{label:<14} rank1={m['rank1']:.3f} map={m['map']:.3f} "
              f"({int(m['n_seeds'])} seeds)")
    return 0


def cmd_sweep(args, run: Settings) -> int:
    t0 = time.perf_counter()
    seeds = _parse_list(args.seeds, "seed", _seed)
    # sweep_grid coerces each value to its field's type
    grid = sweep_grid(args.param, list(_parse_list(args.values, "value")))
    for row in grid.values():
        # each value is checked as its config key, against the rest of the config
        resolve(run.values, {f"weights.{name}": v for name, v in row.items()})
    data, inputs = _load_data(args)
    cells = run_cells(data, run.train, run.protocols[0], grid, seeds)
    out = _prepare_out(args)
    write_sweep_csv(out / "sweep.csv", cells, args.param)
    _write_manifest(out, "sweep", run.values, list(seeds), inputs, ["sweep.csv"], t0)
    for c in cells:
        print(f"{c.label:<14} seed={c.seed} rank1={c.metrics['rank1']:.3f} "
              f"map={c.metrics['map']:.3f}")
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

    def common(p, data=False, checkpoint=False, schedule=False, seed=None):
        # `seed`: the config key --seed sets, over --config and dotted flags
        p.set_defaults(seed_key=seed)
        p.add_argument("--config", help="JSON config file with dotted keys")
        if seed:
            p.add_argument("--seed", type=int, default=None, help=f"sets {seed}")
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
    common(p, seed="gen.seed")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train the encoder suite")
    common(p, data=True, schedule=True, seed="train.seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="retrieval evaluation of a checkpoint")
    common(p, data=True, checkpoint=True, seed="eval.seed")
    p.add_argument("--split", choices=("test", "train"), default="test")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference checks of all gradients")
    common(p)
    p.add_argument("--seed", type=int, default=0, help="seed of the checked batches")
    p.add_argument("--batches", type=int, default=50, help="batches per loss")
    p.add_argument("--h", type=float, default=1e-5, help="finite-difference step")
    p.add_argument("--tol", type=float, default=1e-4, help="relative-error tolerance")
    p.add_argument("--sizes", help="comma list of NxD batch sizes, e.g. 2x4,8x8")
    p.add_argument("--losses", help="comma list of losses to check (default: all)")
    p.set_defaults(func=cmd_gradcheck)

    # ablate and sweep train one cell per seed of --seeds and take no --seed;
    # without abbreviations, --seed is an unknown flag rather than --seeds
    p = sub.add_parser("ablate", help="train the component on/off lattice",
                       allow_abbrev=False)
    common(p, data=True, schedule=True)
    p.add_argument("--seeds", default="0,1,2,3,4", help="comma list of train seeds")
    p.add_argument("--labels", help="comma subset of lattice rows "
                                    f"({','.join(ABLATION_LABELS)})")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep", help="metric-vs-value curves for one parameter",
                       allow_abbrev=False)
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
        # --seed and --long-schedule are overrides that beat the dotted flags
        if args.seed_key is not None and args.seed is not None:
            overrides[args.seed_key] = args.seed
        if getattr(args, "long_schedule", False):
            overrides.update(LONG_SCHEDULE)
        file_cfg = load_config_file(args.config) if args.config else None
        # ablate and sweep rank one protocol, so eval.shots "both" is refused
        run = resolve(file_cfg, overrides, shots_both=args.func not in (cmd_ablate, cmd_sweep))
        return args.func(args, run)
    except SystemExit as e:
        # argparse exits 0 for --help/--version; anything else is a usage error
        return 0 if e.code in (0, None) else 1
    except (ConfigError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ProtocolError, TrainingDivergedError, ArithmeticError) as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
