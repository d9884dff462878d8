"""Ablation cells and the direction benchmark.

A *cell* is one training run under a named objective configuration plus a
retrieval evaluation of the result. The ablation grid switches the loss
components on and off along the lattice

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

import csv
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from . import model
from .evaluator import Protocol, embed_split, evaluate, modality_gap
from .losses import LossWeights, weights_with
from .synthdata import DatasetBundle
from .trainer import TrainConfig, TrainResult, encoder_config_for, run_training

# label -> overrides applied on top of the configured loss weights
ABLATION_GRID: tuple[tuple[str, dict[str, object]], ...] = (
    ("baseline", {"lambda2": 0.0, "lambda3": 0.0, "lambda4": 0.0, "n_fuse": 0}),
    ("align", {"lambda3": 0.0, "lambda4": 0.0, "n_fuse": 0}),
    ("align+fusion", {"lambda4": 0.0}),
    ("align+parity", {"lambda3": 0.0, "n_fuse": 0}),
    ("full", {}),
)

ABLATION_LABELS = tuple(label for label, _ in ABLATION_GRID)

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


def grid_overrides(label: str) -> dict[str, object]:
    for name, overrides in ABLATION_GRID:
        if name == label:
            return dict(overrides)
    raise KeyError(f"unknown ablation label {label!r}; "
                   f"known: {', '.join(ABLATION_LABELS)}")


def effective_weights(base: LossWeights, overrides: dict[str, object]) -> LossWeights:
    return weights_with(base, **overrides)


@dataclass
class CellResult:
    label: str
    seed: int
    rank1: float
    rank5: float
    rank10: float
    map: float
    gap_ratio: float
    conflict_sensitivity: float
    first_epoch_loss: float
    last_epoch_loss: float
    wall_clock_sec: float
    overrides: dict[str, object] = field(default_factory=dict)

    def component_flags(self, base: LossWeights) -> dict[str, int]:
        w = effective_weights(base, self.overrides)
        return {"align": int(w.lambda2 > 0),
                "fusion": int(w.n_fuse > 0 and (w.lambda2 > 0 or w.lambda3 > 0)),
                "parity": int(w.lambda4 > 0)}

    def as_row(self, base: LossWeights) -> dict[str, object]:
        flags = self.component_flags(base)
        return {"method": self.label, **flags, "seed": self.seed,
                "rank1": self.rank1, "rank5": self.rank5, "rank10": self.rank10,
                "map": self.map, "gap_ratio": self.gap_ratio,
                "conflict_sensitivity": self.conflict_sensitivity,
                "first_epoch_loss": self.first_epoch_loss,
                "last_epoch_loss": self.last_epoch_loss}


def _epoch_mean_total(result: TrainResult, epoch: int) -> float:
    totals = [s.breakdown.total for s in result.log.steps if s.epoch == epoch]
    return sum(totals) / len(totals) if totals else 0.0


def run_cell(data: DatasetBundle, train_cfg: TrainConfig, protocol: Protocol,
             label: str, weight_overrides: dict[str, object] | None = None,
             seed: int | None = None, snapshot_every_epoch: bool = False) -> CellResult:
    """Train one objective configuration and evaluate it on the test split."""
    overrides = dict(weight_overrides or {})
    cfg = replace(train_cfg, weights=effective_weights(train_cfg.weights, overrides))
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    if not snapshot_every_epoch:
        cfg = replace(cfg, eval_every=cfg.epochs)
    result = run_training(cfg, data)
    report = evaluate(result.store, data.test, protocol, meta=data.meta)
    return CellResult(
        label=label, seed=cfg.seed,
        rank1=report.rank(1), rank5=report.rank(5), rank10=report.rank(10),
        map=report.map,
        gap_ratio=report.diagnostics["gap_ratio"],
        conflict_sensitivity=report.diagnostics["conflict_sensitivity"],
        first_epoch_loss=_epoch_mean_total(result, 0),
        last_epoch_loss=_epoch_mean_total(result, cfg.epochs - 1),
        wall_clock_sec=result.log.wall_clock_sec,
        overrides=overrides)


def untrained_gap_ratio(data: DatasetBundle, train_cfg: TrainConfig,
                        seed: int | None = None) -> float:
    """Modality-gap ratio of a freshly initialized encoder on the test split."""
    if seed is not None:
        train_cfg = replace(train_cfg, seed=seed)
    store = model.init_params(encoder_config_for(train_cfg, data))
    return modality_gap(embed_split(store, data.test))["gap_ratio"]


def run_ablation(data: DatasetBundle, train_cfg: TrainConfig, protocol: Protocol,
                 labels: tuple[str, ...] = ABLATION_LABELS,
                 seeds: tuple[int, ...] = (0,)) -> list[CellResult]:
    cells = []
    for label in labels:
        overrides = grid_overrides(label)
        for seed in seeds:
            cells.append(run_cell(data, train_cfg, protocol, label,
                                  overrides, seed=seed))
    return cells


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
            "rank1": _mean([c.rank1 for c in group]),
            "rank5": _mean([c.rank5 for c in group]),
            "rank10": _mean([c.rank10 for c in group]),
            "map": _mean([c.map for c in group]),
            "gap_ratio": _mean([c.gap_ratio for c in group]),
            "conflict_sensitivity": _mean([c.conflict_sensitivity for c in group]),
            "last_epoch_loss": _mean([c.last_epoch_loss for c in group]),
        }
    return out


def direction_margins(cells: list[CellResult],
                      untrained_gaps: list[float]) -> dict[str, float]:
    """Margins behind the qualitative claims; positive margin = claim holds.

    - rank1_full_vs_baseline: full beats the identity+triplet baseline at rank-1
    - map_fusion_vs_align: adding fusion partners improves mAP over plain alignment
    - conflict_parity_gain: parity (full) is less conflict-sensitive than
      the same objective without it (align+fusion)
    - gap_shrink: training the full objective shrinks the modality gap
      relative to a fresh encoder
    """
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
    cells = run_ablation(data, train_cfg, protocol,
                         labels=BENCHMARK_LABELS, seeds=seeds)
    untrained = [untrained_gap_ratio(data, train_cfg, seed=s) for s in seeds]
    margins = direction_margins(cells, untrained)
    return {"seeds": list(seeds),
            "margins": margins,
            "means": summarize(cells),
            "untrained_gap_ratio": _mean(untrained),
            "cells": [asdict(c) for c in cells],
            "wall_clock_sec": sum(c.wall_clock_sec for c in cells)}


ABLATION_CSV_FIELDS = ("method", "align", "fusion", "parity", "seed",
                       "rank1", "rank5", "rank10", "map", "gap_ratio",
                       "conflict_sensitivity", "first_epoch_loss",
                       "last_epoch_loss")


def write_ablation_csv(path: Path | str, cells: list[CellResult],
                       base: LossWeights) -> None:
    with Path(path).open("w", newline="") as fh:
        fh.write("# xmml-ablation-csv v1\n")
        writer = csv.DictWriter(fh, fieldnames=ABLATION_CSV_FIELDS)
        writer.writeheader()
        for c in cells:
            writer.writerow(c.as_row(base))


SWEEP_CSV_FIELDS = ("param", "value", "seed", "rank1", "rank5", "rank10",
                    "map", "gap_ratio", "conflict_sensitivity",
                    "last_epoch_loss")

# public sweep names -> LossWeights field
SWEEP_PARAMS = {"lambda1": "lambda1", "lambda2": "lambda2",
                "lambda3": "lambda3", "lambda4": "lambda4",
                "tau": "tau", "n_fuse": "n_fuse", "M": "n_fuse"}


def run_sweep(data: DatasetBundle, train_cfg: TrainConfig, protocol: Protocol,
              param: str, values: list[float],
              seeds: tuple[int, ...] = (0,)) -> list[CellResult]:
    if param not in SWEEP_PARAMS:
        raise KeyError(f"unknown sweep parameter {param!r}; "
                       f"known: {', '.join(sorted(SWEEP_PARAMS))}")
    target = SWEEP_PARAMS[param]
    cells = []
    for value in values:
        cast = int(value) if target == "n_fuse" else float(value)
        for seed in seeds:
            cells.append(run_cell(data, train_cfg, protocol,
                                  label=f"{param}={cast}",
                                  weight_overrides={target: cast}, seed=seed))
    return cells


def write_sweep_csv(path: Path | str, cells: list[CellResult], param: str) -> None:
    with Path(path).open("w", newline="") as fh:
        fh.write("# xmml-sweep-csv v1\n")
        writer = csv.DictWriter(fh, fieldnames=SWEEP_CSV_FIELDS)
        writer.writeheader()
        for c in cells:
            target = SWEEP_PARAMS[param]
            writer.writerow({"param": param, "value": c.overrides[target],
                             "seed": c.seed, "rank1": c.rank1, "rank5": c.rank5,
                             "rank10": c.rank10, "map": c.map,
                             "gap_ratio": c.gap_ratio,
                             "conflict_sensitivity": c.conflict_sensitivity,
                             "last_epoch_loss": c.last_epoch_loss})
