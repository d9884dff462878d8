"""Acceptance gate: one test per shipping criterion, each reported as a
single pass/fail line under `pytest -v`.

1. every loss and the full model pass finite-difference gradient checks
2. analytic zero/identity cases hold to 1e-10
3. retrieval metrics equal a brute-force oracle exactly
4. hand-computed reference values match to 1e-5
5. the multi-seed direction benchmark reproduces all four claims
6. the fusion-count sweep emits a well-formed CSV
7. every pipeline stage is byte-identical across reruns
"""

from __future__ import annotations

import csv
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import embedding_set
from xmml.bench import (BENCHMARK_SEEDS, CLAIMS, benchmark_train_config, claim_holds,
                        run_cells, run_direction_benchmark, sweep_grid,
                        write_sweep_csv)
from xmml.cli import main as cli_main
from xmml.evaluator import Protocol, cmc_map
from xmml.losses import (LossWeights, contrastive_fused,
                         contrastive_pair_loss, contrastive_single,
                         distance_parity_loss, distill_loss, fuse_multiview,
                         identity_loss, weighted_triplet_loss)
from xmml.gradcheck import LOSS_NAMES, run_all
from xmml.numerics import derive_rng
from xmml.synthdata import GeneratorConfig, generate_dataset

REFERENCE = json.loads(
    (Path(__file__).parent / "fixtures" / "reference_margins.json").read_text())


def test_01_all_gradients_match_finite_differences():
    t0 = time.perf_counter()
    summaries = run_all(names=LOSS_NAMES, n_batches=50, h=1e-5, tol=1e-4, seed=0)
    elapsed = time.perf_counter() - t0
    assert [s.name for s in summaries] == list(LOSS_NAMES)
    for s in summaries:
        assert s.n_batches >= 50
        assert s.n_failed == 0, f"{s.name}: {s.n_failed} failing batches"
        assert s.max_rel_err < 1e-4
    assert elapsed < 60.0


def test_02_analytic_zero_and_identity_cases():
    tol = 1e-10
    rng = derive_rng(0, "acceptance-analytic")

    # a single-pair batch has nothing to contrast against: loss is zero
    f = rng.standard_normal((1, 6))
    t = rng.standard_normal((1, 6))
    loss, _, _ = contrastive_pair_loss(f, t, tau=0.07)
    assert abs(loss) <= tol

    # uniform logits make the classifier loss exactly two nats of entropy
    for n, c in ((1, 2), (3, 5), (4, 16)):
        loss, _ = identity_loss(np.zeros((2, n, c)), np.arange(n) % c)
        assert abs(loss - 2.0 * math.log(c)) <= tol

    # zero fusion partners: the fused objective collapses onto the one-to-one
    # objective and the self-distillation residual vanishes
    n, d = 6, 4
    emb = embedding_set(f_v=rng.standard_normal((n, d)),
                        f_r=rng.standard_normal((n, d)),
                        t_v=rng.standard_normal((n, d)),
                        t_r=rng.standard_normal((n, d)),
                        labels=np.arange(n) // 2)
    fused = fuse_multiview(emb, n_fuse=0, rng_seed=0)
    loss_fused, _ = contrastive_fused(fused, tau=0.07)
    loss_plain, _ = contrastive_single(emb, tau=0.07)
    assert abs(loss_fused - loss_plain) <= tol
    kd, _ = distill_loss(emb, fused)
    assert abs(kd) <= tol

    # identical text embeddings across modalities leave nothing to purify
    emb_eq = embedding_set(f_v=emb.blocks[0], f_r=emb.blocks[1], t_v=emb.blocks[2],
                           t_r=emb.blocks[2].copy(), labels=emb.labels)
    loss_parity, _ = distance_parity_loss(emb_eq)
    assert abs(loss_parity) <= tol

    # perfectly balanced anchors: soft weighting cancels and each anchor
    # contributes softplus(0) = ln 2
    stack = 3.0 * np.eye(4)
    loss_wrt, _ = weighted_triplet_loss(stack, np.array([0, 0, 1, 1]))
    assert abs(loss_wrt - math.log(2.0)) <= tol


def test_03_retrieval_metrics_equal_bruteforce_oracle():
    t0 = time.perf_counter()
    rng = derive_rng(0, "acceptance-retrieval")
    for trial in range(100):
        n_q = int(rng.integers(1, 11))
        n_g = int(rng.integers(2, 21))
        sim = rng.standard_normal((n_q, n_g))
        if trial % 2 == 0:
            sim = np.round(sim, 1)    # force exact similarity ties
        q_labels = rng.integers(0, 4, size=n_q)
        g_labels = rng.integers(0, 4, size=n_g)
        g_labels[0] = q_labels[0]
        g_ids = rng.permutation(1000)[:n_g]
        k_max = int(rng.integers(1, n_g + 1))

        cmc, mean_ap, n_excl = cmc_map(sim, q_labels, g_labels, g_ids, k_max)
        ocmc, omap, oexcl = oracles.cmc_map_oracle(sim, q_labels, g_labels,
                                                   g_ids, k_max)
        assert n_excl == oexcl
        assert mean_ap == omap, f"instance {trial}: {mean_ap} != {omap}"
        assert np.array_equal(cmc, np.asarray(ocmc))
    assert time.perf_counter() - t0 < 10.0


def test_04_hand_computed_reference_values():
    tol = 1e-5

    loss, _ = identity_loss(np.array([[[1.0, 0.0]], [[0.0, 1.0]]]), np.array([0]))
    assert abs(loss - 1.62652) < tol

    eye = np.eye(2)
    loss, _, _ = contrastive_pair_loss(eye, eye.copy(), tau=1.0)
    assert abs(loss - 0.62652) < tol

    emb = embedding_set(f_v=np.array([[0.0]]), t_v=np.array([[1.0]]),
                        f_r=np.array([[2.0]]), t_r=np.array([[3.0]]),
                        labels=np.array([0]))
    loss, _ = distance_parity_loss(emb)
    assert abs(loss - 4.0) < tol


def test_05_direction_benchmark_claims_hold(default_bundle):
    t0 = time.perf_counter()
    result = run_direction_benchmark(default_bundle, benchmark_train_config(),
                                     Protocol(), seeds=BENCHMARK_SEEDS)
    elapsed = time.perf_counter() - t0
    margins = result["margins"]
    ref = REFERENCE["margins"]

    # the four claims, under the one rule the locking script applies
    for key in CLAIMS:
        assert claim_holds(margins[key]), (key, margins[key], CLAIMS[key])

    # locked margins guard against silent regressions (0.5x for platform drift)
    for key, locked in ref.items():
        assert margins[key] >= 0.5 * locked, (key, margins[key], locked)

    assert abs(result["means"]["full"]["rank1"]
               - REFERENCE["means"]["full"]["rank1"]) < 0.05
    assert elapsed < 300.0


def test_06_fusion_count_sweep_produces_wellformed_csv(default_bundle, tmp_path):
    cells = run_cells(default_bundle, benchmark_train_config(), Protocol(),
                      sweep_grid("M", [0.0, 1.0, 2.0, 3.0]), seeds=(0,))
    out = tmp_path / "sweep.csv"
    write_sweep_csv(out, cells, "M")

    lines = out.read_text().splitlines()
    assert lines[0] == "# xmml-sweep-csv v1"
    rows = list(csv.DictReader(lines[1:]))
    assert tuple(rows[0]) == ("param", "value", "seed", "rank1", "rank5",
                              "rank10", "map", "gap_ratio",
                              "conflict_sensitivity", "last_epoch_loss")
    assert [r["value"] for r in rows] == ["0", "1", "2", "3"]
    for r in rows:
        assert r["param"] == "M"
        for field in ("rank1", "rank5", "rank10", "map", "gap_ratio",
                      "conflict_sensitivity", "last_epoch_loss"):
            value = float(r[field])
            assert math.isfinite(value)
        assert 0.0 <= float(r["rank1"]) <= 1.0
    # no ordering across fusion counts is asserted: the claim is only that
    # the sweep runs and reports every cell


def test_07_byte_identical_reruns(tmp_path):
    gen_args = ["--gen.n_identities_train", "4", "--gen.n_identities_test", "3",
                "--gen.samples_per_identity_per_modality", "2",
                "--gen.d_id", "6", "--gen.d_view", "2", "--gen.d_conflict", "2"]
    train_args = ["--train.epochs", "2", "--train.batches_per_epoch", "2",
                  "--train.n_ids_per_batch", "3", "--train.k_per_modality", "2",
                  "--model.d_hidden", "16", "--model.d_embed", "8"]

    d1, d2 = tmp_path / "data1", tmp_path / "data2"
    assert cli_main(["gen", "--out", str(d1)] + gen_args) == 0
    assert cli_main(["gen", "--out", str(d2)] + gen_args) == 0
    for name in ("train.jsonl", "test.jsonl", "meta.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    r1, r2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(["train", "--data", str(d1), "--out", str(r1)] + train_args) == 0
    assert cli_main(["train", "--data", str(d1), "--out", str(r2)] + train_args) == 0
    for name in ("checkpoint.jsonl", "train_log.jsonl"):
        assert (r1 / name).read_bytes() == (r2 / name).read_bytes()

    e1, e2 = tmp_path / "eval1", tmp_path / "eval2"
    for out in (e1, e2):
        assert cli_main(["eval", "--data", str(d1), "--out", str(out),
                         "--checkpoint", str(r1 / "checkpoint.jsonl")]) == 0
    assert (e1 / "eval.csv").read_bytes() == (e2 / "eval.csv").read_bytes()
    assert ((e1 / "eval_report.json").read_bytes()
            == (e2 / "eval_report.json").read_bytes())
