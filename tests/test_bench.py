"""Ablation grid bookkeeping, CSV writers, direction-margin arithmetic, and
small end-to-end sweep/ablation cells on the tiny dataset."""

from __future__ import annotations

import csv
from dataclasses import replace
from pathlib import Path

import pytest

from xmml import bench
from xmml.bench import (ABLATION_CSV_FIELDS, ABLATION_GRID, ABLATION_LABELS,
                        BENCHMARK_LABELS, BENCHMARK_SEEDS, BENCHMARK_TRAIN_OVERRIDES,
                        CLAIMS, SWEEP_CSV_FIELDS, SWEEP_PARAMS, CellResult,
                        benchmark_train_config, claim_holds, direction_margins, run_cell,
                        run_cells, summarize, sweep_grid, untrained_gap_ratio,
                        write_ablation_csv, write_sweep_csv)
from xmml.config import ConfigError
from xmml.evaluator import Protocol
from xmml.losses import LossWeights
from xmml.trainer import TrainConfig, TrainingDivergedError

TINY_TRAIN = TrainConfig(epochs=2, batches_per_epoch=2, n_ids_per_batch=3,
                         k_per_modality=2, d_hidden=16, d_embed=8, seed=0)


def make_cell(label: str, seed: int = 0, *, rank1=0.5, rank5=0.7, rank10=0.9,
              map_=0.4, gap=1.5, conflict=0.1, first=10.0, last=5.0,
              overrides=None) -> CellResult:
    metrics = {"rank1": rank1, "rank5": rank5, "rank10": rank10, "map": map_,
               "gap_ratio": gap, "conflict_sensitivity": conflict}
    return CellResult(label=label, seed=seed,
                      weights=replace(LossWeights(), **(overrides or {})),
                      metrics=metrics, first_epoch_loss=first,
                      last_epoch_loss=last, wall_clock_sec=0.1)


def read_tagged_csv(path: Path, tag: str) -> list[dict]:
    lines = path.read_text().splitlines()
    assert lines[0] == tag
    return list(csv.DictReader(lines[1:]))


class TestGrid:
    def test_labels_cover_benchmark_labels(self):
        assert set(BENCHMARK_LABELS) <= set(ABLATION_LABELS)
        assert len(ABLATION_LABELS) == 5
        assert BENCHMARK_SEEDS == (0, 1, 2, 3, 4)

    def test_baseline_disables_everything_beyond_identity_triplet(self):
        w = replace(LossWeights(), **ABLATION_GRID["baseline"])
        assert w.lambda2 == 0 and w.lambda3 == 0 and w.lambda4 == 0
        assert w.n_fuse == 0
        assert w.lambda1 == LossWeights().lambda1

    def test_full_keeps_defaults(self):
        assert ABLATION_GRID["full"] == {}
        w = replace(LossWeights(), **ABLATION_GRID["full"])
        assert w == LossWeights()

    def test_overrides_do_not_mutate_base(self):
        base = LossWeights()
        replace(base, lambda2=0.0)
        assert base.lambda2 == LossWeights().lambda2

    @pytest.mark.parametrize("label,flags", [
        ("baseline", (0, 0, 0)),
        ("align", (1, 0, 0)),
        ("align+fusion", (1, 1, 0)),
        ("align+parity", (1, 0, 1)),
        ("full", (1, 1, 1)),
    ])
    def test_component_flags(self, label, flags):
        cell = make_cell(label, overrides=ABLATION_GRID[label])
        got = cell.component_flags()
        assert (got["align"], got["fusion"], got["parity"]) == flags

    def test_as_row_matches_csv_fields(self):
        row = make_cell("full").as_row()
        assert tuple(row) == ABLATION_CSV_FIELDS


class TestBenchmarkConfig:
    def test_overrides_applied_on_top_of_defaults(self):
        cfg = benchmark_train_config()
        assert cfg.lr_visual == BENCHMARK_TRAIN_OVERRIDES["lr_visual"]
        assert cfg.lr_text == BENCHMARK_TRAIN_OVERRIDES["lr_text"]
        base = TrainConfig()
        assert cfg.epochs == base.epochs
        assert cfg.decay_epochs == base.decay_epochs

    def test_respects_custom_base(self):
        cfg = benchmark_train_config(TINY_TRAIN)
        assert cfg.epochs == TINY_TRAIN.epochs
        assert cfg.lr_visual == BENCHMARK_TRAIN_OVERRIDES["lr_visual"]


class TestSummaries:
    def test_means_over_seeds(self):
        cells = [make_cell("a", 0, rank1=0.2, map_=0.1),
                 make_cell("a", 1, rank1=0.4, map_=0.3),
                 make_cell("b", 0, rank1=1.0, map_=1.0)]
        means = summarize(cells)
        assert means["a"]["rank1"] == pytest.approx(0.3)
        assert means["a"]["map"] == pytest.approx(0.2)
        assert means["a"]["n_seeds"] == 2.0
        assert means["b"]["rank1"] == 1.0

    def test_direction_margin_arithmetic(self):
        cells = [
            make_cell("baseline", 0, rank1=0.10, map_=0.10, conflict=0.050, gap=1.70),
            make_cell("align", 0, rank1=0.30, map_=0.30, conflict=0.090, gap=1.50),
            make_cell("align+fusion", 0, rank1=0.33, map_=0.34, conflict=0.097, gap=1.49),
            make_cell("full", 0, rank1=0.34, map_=0.34, conflict=0.096, gap=1.487),
        ]
        margins = direction_margins(cells, untrained_gaps=[1.6, 1.8])
        assert list(margins) == list(CLAIMS)
        assert margins["rank1_full_vs_baseline"] == pytest.approx(0.24)
        assert margins["map_fusion_vs_align"] == pytest.approx(0.04)
        assert margins["conflict_parity_gain"] == pytest.approx(0.001)
        assert margins["gap_shrink"] == pytest.approx(1.7 - 1.487)

    def test_a_claim_holds_only_on_a_positive_margin(self):
        assert [claim_holds(m) for m in (-1e-9, 0.0, 1e-9)] == [False, False, True]

    def test_direction_margins_need_all_benchmark_labels(self):
        cells = [make_cell(lbl) for lbl in ("baseline", "align", "align+fusion")]
        with pytest.raises(KeyError, match="full"):
            direction_margins(cells, untrained_gaps=[1.5])


class TestCsvWriters:
    def test_ablation_csv_round_trips(self, tmp_path):
        cells = [make_cell(lbl, s, overrides=overrides)
                 for lbl, overrides in ABLATION_GRID.items() for s in (0, 1)]
        out = tmp_path / "ablation.csv"
        write_ablation_csv(out, cells)
        assert out.read_text().splitlines()[1] == (
            "method,align,fusion,parity,seed,rank1,rank5,rank10,map,gap_ratio,"
            "conflict_sensitivity,first_epoch_loss,last_epoch_loss")
        rows = read_tagged_csv(out, "# xmml-ablation-csv v1")
        assert len(rows) == 10
        assert tuple(rows[0]) == ABLATION_CSV_FIELDS
        baseline = next(r for r in rows if r["method"] == "baseline")
        assert (baseline["align"], baseline["fusion"], baseline["parity"]) == ("0", "0", "0")
        full = next(r for r in rows if r["method"] == "full")
        assert (full["align"], full["fusion"], full["parity"]) == ("1", "1", "1")
        for r in rows:
            float(r["rank1"]), float(r["map"]), float(r["gap_ratio"])

    def test_sweep_csv_round_trips(self, tmp_path):
        cells = [make_cell("tau=0.05", 0, overrides={"tau": 0.05}),
                 make_cell("tau=0.2", 0, overrides={"tau": 0.2})]
        out = tmp_path / "sweep.csv"
        write_sweep_csv(out, cells, "tau")
        assert out.read_text().splitlines()[1] == (
            "param,value,seed,rank1,rank5,rank10,map,gap_ratio,conflict_sensitivity,"
            "last_epoch_loss")
        rows = read_tagged_csv(out, "# xmml-sweep-csv v1")
        assert tuple(rows[0]) == SWEEP_CSV_FIELDS
        assert [float(r["value"]) for r in rows] == [0.05, 0.2]
        assert all(r["param"] == "tau" for r in rows)


class TestSweepParams:
    def test_alias_for_fusion_count(self):
        assert SWEEP_PARAMS["M"] == "n_fuse"
        assert SWEEP_PARAMS["n_fuse"] == "n_fuse"

    def test_unknown_param_raises(self):
        with pytest.raises(ConfigError, match="unknown sweep parameter"):
            sweep_grid("gamma", [0.1])


class TestTinyRuns:
    def test_run_cell_produces_finite_metrics(self, tiny_bundle):
        cell = run_cell(tiny_bundle, TINY_TRAIN, Protocol(), "full")
        assert cell.label == "full" and cell.seed == 0
        assert cell.weights == TINY_TRAIN.weights
        m = cell.metrics
        assert 0.0 <= m["rank1"] <= m["rank5"] <= m["rank10"] <= 1.0
        assert 0.0 <= m["map"] <= 1.0
        assert m["gap_ratio"] > 0 and m["conflict_sensitivity"] >= 0
        assert cell.first_epoch_loss > 0 and cell.last_epoch_loss > 0
        assert cell.wall_clock_sec >= 0

    def test_run_cell_deterministic(self, tiny_bundle):
        a = run_cell(tiny_bundle, TINY_TRAIN, Protocol(), "full")
        b = run_cell(tiny_bundle, TINY_TRAIN, Protocol(), "full")
        assert a.metrics["rank1"] == b.metrics["rank1"]
        assert a.metrics["map"] == b.metrics["map"]
        assert a.last_epoch_loss == b.last_epoch_loss

    def test_run_cells_returns_rows_then_seeds_with_their_weights(self, tiny_bundle):
        grid = {"baseline": ABLATION_GRID["baseline"], "M=2": {"n_fuse": 2}}
        cells = run_cells(tiny_bundle, TINY_TRAIN, Protocol(), grid, seeds=(1, 0))
        assert [(c.label, c.seed) for c in cells] == [
            ("baseline", 1), ("baseline", 0), ("M=2", 1), ("M=2", 0)]
        for c in cells:
            assert c.weights == replace(TINY_TRAIN.weights, **grid[c.label])

    def test_run_sweep_casts_fusion_counts_to_int(self, tiny_bundle):
        cells = run_cells(tiny_bundle, TINY_TRAIN, Protocol(), sweep_grid("M", [0.0, "1"]),
                          seeds=(0,))
        assert [c.label for c in cells] == ["M=0", "M=1"]
        assert [c.weights.n_fuse for c in cells] == [0, 1]
        assert all(isinstance(c.weights.n_fuse, int) for c in cells)

    def test_run_cells_checks_every_row_before_training(self, tiny_bundle, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("a cell trained")
        monkeypatch.setattr(bench, "run_training", no_training)
        with pytest.raises(ValueError, match="tau must be > 0"):
            run_cells(tiny_bundle, TINY_TRAIN, Protocol(),
                      {"ok": {}, "bad": {"tau": -1.0}}, seeds=(0,))

    def test_run_cells_rejects_an_infinite_diagnostic(self, default_bundle,
                                                      inter_overflow_init, recwarn):
        cfg = TrainConfig(epochs=1, batches_per_epoch=1, lr_visual=0.0, lr_text=0.0,
                          weights=LossWeights(lambda1=0.0, lambda3=0.0, lambda4=0.0))
        with pytest.raises(TrainingDivergedError, match="diagnostic inter_mean is inf"):
            run_cells(default_bundle, cfg, Protocol(), {"full": {}}, seeds=(0,))
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_untrained_gap_ratio_deterministic(self, tiny_bundle):
        a = untrained_gap_ratio(tiny_bundle, TINY_TRAIN, seed=0)
        b = untrained_gap_ratio(tiny_bundle, TINY_TRAIN, seed=0)
        assert a == b and a > 0
