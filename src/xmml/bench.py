"""Ablation cells, sweeps and the direction benchmark.

A *cell* is one training run under a named objective configuration plus a
retrieval evaluation of the result. Every experiment is a *grid*: labelled
loss-weight overrides, run over a list of seeds by `run_cells`. The
ablation grid switches the loss components on and off along the lattice

    baseline      identity + weighted triplet only
    align         + contrastive alignment (no fusion partners)
    align+fusion  + multi-view fusion and distillation
    align+parity  + cross-modality distance parity (no fusion)
    full          everything on

The direction benchmark aggregates cells over several seeds and reports the
margins behind the qualitative claims (fusion helps mAP, parity reduces
conflict sensitivity, training shrinks the modality gap, the full objective
beats the baseline at rank-1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import model
from .config import ConfigError, coerce
from .evaluator import (REPORTED_METRICS, Protocol, embed_split, evaluate, modality_gap,
                        write_csv)
from .losses import LossWeights
from .synthdata import DatasetBundle
from .trainer import TrainConfig, TrainResult, encoder_config_for, run_training

# label -> overrides applied on top of the configured loss weights
ABLATION_GRID: dict[str, dict[str, object]] = {
    "baseline": {"lambda2": 0.0, "lambda3": 0.0, "lambda4": 0.0, "n_fuse": 0},
    "align": {"lambda3": 0.0, "lambda4": 0.0, "n_fuse": 0},
    "align+fusion": {"lambda4": 0.0},
    "align+parity": {"lambda3": 0.0, "n_fuse": 0},
    "full": {},
}

ABLATION_LABELS = tuple(ABLATION_GRID)

# methods the direction benchmark trains, and the claims it checks
BENCHMARK_LABELS = ("baseline", "align", "align+fusion", "full")

# Benchmark learning rates: the configured defaults mirror the reference
# recipe's rates, which assume a pretrained backbone; training from random
# initialization at this scale converges an order of magnitude slower, so the
# benchmark scales both rates by 10x (keeping the near-frozen text encoder
# ratio) to reach a converged regime inside the 60-epoch budget.
BENCHMARK_TRAIN_OVERRIDES: dict[str, float] = {"lr_visual": 3e-3, "lr_text": 1e-5}

BENCHMARK_SEEDS: tuple[int, ...] = (0, 1, 2, 3, 4)


def benchmark_train_config(base: TrainConfig | None = None) -> TrainConfig:
    cfg = base if base is not None else TrainConfig()
    return replace(cfg, **BENCHMARK_TRAIN_OVERRIDES)


@dataclass
class CellResult:
    label: str
    seed: int
    weights: LossWeights        # the loss weights the cell trained with
    metrics: dict[str, float]   # the evaluator's REPORTED_METRICS, in order
    first_epoch_loss: float
    last_epoch_loss: float
    wall_clock_sec: float

    def component_flags(self) -> dict[str, int]:
        w = self.weights
        return {"align": int(w.lambda2 > 0),
                "fusion": int(w.n_fuse > 0 and w.reads_fused),
                "parity": int(w.lambda4 > 0)}

    def as_row(self) -> dict[str, object]:
        flags = self.component_flags()
        return {"method": self.label, **flags, "seed": self.seed, **self.metrics,
                "first_epoch_loss": self.first_epoch_loss,
                "last_epoch_loss": self.last_epoch_loss}


def _epoch_mean_total(result: TrainResult, epoch: int) -> float:
    totals = [s.breakdown.total for s in result.log.steps if s.epoch == epoch]
    return sum(totals) / len(totals) if totals else 0.0


def run_cell(data: DatasetBundle, cfg: TrainConfig, protocol: Protocol,
             label: str) -> CellResult:
    """Train one run configuration and evaluate it on the test split."""
    result = run_training(cfg, data)
    report, = evaluate(result.store, data.test, [protocol], meta=data.meta)
    return CellResult(
        label=label, seed=cfg.seed, weights=cfg.weights, metrics=report.metrics(),
        first_epoch_loss=_epoch_mean_total(result, 0),
        last_epoch_loss=_epoch_mean_total(result, cfg.epochs - 1),
        wall_clock_sec=result.log.wall_clock_sec)


def run_cells(data: DatasetBundle, train_cfg: TrainConfig, protocol: Protocol,
              grid: dict[str, dict[str, object]],
              seeds: tuple[int, ...]) -> list[CellResult]:
    """One cell per grid row and seed, rows in grid order and seeds inner.
    Each row's overrides apply on top of `train_cfg.weights`, and a cell
    snapshots retrieval only after its last epoch. Every cell's run
    configuration is built, which checks it, before the first cell trains."""
    configs = [(label, replace(train_cfg, weights=replace(train_cfg.weights, **overrides),
                               seed=seed, eval_every=train_cfg.epochs))
               for label, overrides in grid.items() for seed in seeds]
    return [run_cell(data, cfg, protocol, label) for label, cfg in configs]


def untrained_gap_ratio(data: DatasetBundle, train_cfg: TrainConfig,
                        seed: int | None = None) -> float:
    """Modality-gap ratio of a freshly initialized encoder on the test split."""
    if seed is not None:
        train_cfg = replace(train_cfg, seed=seed)
    store = model.init_params(encoder_config_for(train_cfg, data))
    return modality_gap(data.test, embed_split(store, data.test))["gap_ratio"]


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def summarize(cells: list[CellResult]) -> dict[str, dict[str, float]]:
    """Per-label means over seeds for every reported metric."""
    by_label: dict[str, list[CellResult]] = {}
    for c in cells:
        by_label.setdefault(c.label, []).append(c)
    out = {}
    for label, group in by_label.items():
        out[label] = {
            "n_seeds": float(len(group)),
            **{name: _mean([c.metrics[name] for c in group]) for name in REPORTED_METRICS},
            "last_epoch_loss": _mean([c.last_epoch_loss for c in group]),
        }
    return out


# the direction claims: margin key -> the claim a positive margin makes
CLAIMS: dict[str, str] = {
    "rank1_full_vs_baseline": "the full objective beats the baseline at mean rank-1",
    "map_fusion_vs_align": "fusion partners raise mean mAP over plain alignment",
    "conflict_parity_gain": "distance parity lowers conflict sensitivity (full vs align+fusion)",
    "gap_shrink": "training shrinks the modality gap below a fresh encoder's",
}


def claim_holds(margin: float) -> bool:
    """The one pass rule of every claim in CLAIMS."""
    return margin > 0


def direction_margins(cells: list[CellResult],
                      untrained_gaps: list[float]) -> dict[str, float]:
    """The margin of each claim in CLAIMS, keyed and ordered as CLAIMS."""
    means = summarize(cells)
    for needed in BENCHMARK_LABELS:
        if needed not in means:
            raise KeyError(f"direction benchmark needs cells for {needed!r}")
    return {
        "rank1_full_vs_baseline": means["full"]["rank1"] - means["baseline"]["rank1"],
        "map_fusion_vs_align": means["align+fusion"]["map"] - means["align"]["map"],
        "conflict_parity_gain": (means["align+fusion"]["conflict_sensitivity"]
                                 - means["full"]["conflict_sensitivity"]),
        "gap_shrink": _mean(untrained_gaps) - means["full"]["gap_ratio"],
    }


def run_direction_benchmark(data: DatasetBundle, train_cfg: TrainConfig,
                            protocol: Protocol,
                            seeds: tuple[int, ...]) -> dict[str, object]:
    grid = {label: ABLATION_GRID[label] for label in BENCHMARK_LABELS}
    cells = run_cells(data, train_cfg, protocol, grid, seeds)
    untrained = [untrained_gap_ratio(data, train_cfg, seed=s) for s in seeds]
    return {"margins": direction_margins(cells, untrained),
            "means": summarize(cells),
            "untrained_gap_ratio": _mean(untrained)}


ABLATION_CSV_FIELDS = (("method", "align", "fusion", "parity", "seed") + REPORTED_METRICS
                       + ("first_epoch_loss", "last_epoch_loss"))


def write_ablation_csv(path, cells: list[CellResult]) -> None:
    write_csv(path, "ablation", ABLATION_CSV_FIELDS, [c.as_row() for c in cells])


SWEEP_CSV_FIELDS = ("param", "value", "seed") + REPORTED_METRICS + ("last_epoch_loss",)

# public sweep names -> LossWeights field
SWEEP_PARAMS = {"lambda1": "lambda1", "lambda2": "lambda2",
                "lambda3": "lambda3", "lambda4": "lambda4",
                "tau": "tau", "n_fuse": "n_fuse", "M": "n_fuse"}


def sweep_grid(param: str, values: list[float | str]) -> dict[str, dict[str, object]]:
    """One grid row per value, labelled `param=value`. Each value is coerced
    like the config key of its LossWeights field. An unknown `param`, a value
    that does not coerce, or two that coerce to one raise ConfigError."""
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"unknown sweep parameter {param!r}; "
                          f"known: {', '.join(sorted(SWEEP_PARAMS))}")
    target = SWEEP_PARAMS[param]
    casts = [coerce(f"weights.{target}", value) for value in values]
    for i, cast in enumerate(casts):
        if cast in casts[:i]:
            raise ConfigError(f"values {values[casts.index(cast)]} and {values[i]} "
                              f"are both {param}={cast}")
    return {f"{param}={cast}": {target: cast} for cast in casts}


def write_sweep_csv(path, cells: list[CellResult], param: str) -> None:
    target = SWEEP_PARAMS[param]
    write_csv(path, "sweep", SWEEP_CSV_FIELDS,
              [{"param": param, "value": getattr(c.weights, target), "seed": c.seed,
                **c.metrics, "last_epoch_loss": c.last_epoch_loss} for c in cells])
