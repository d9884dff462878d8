"""End-to-end command-line runs, exercised in-process: artifact layout,
manifests, override plumbing, exit codes, and rerun determinism."""

from __future__ import annotations

import csv
import json
from dataclasses import replace
from pathlib import Path

import pytest

from xmml import model
from xmml.cli import main
from xmml.model import EncoderConfig, init_params
from xmml.synthdata import (DatasetBundle, GeneratorConfig, Split,
                            generate_dataset, save_dataset)

TINY_GEN_ARGS = ["--gen.n_identities_train", "4", "--gen.n_identities_test", "3",
                 "--gen.samples_per_identity_per_modality", "2",
                 "--gen.d_id", "6", "--gen.d_view", "2", "--gen.d_conflict", "2"]
TINY_TRAIN_ARGS = ["--train.epochs", "2", "--train.batches_per_epoch", "2",
                   "--train.n_ids_per_batch", "3", "--train.k_per_modality", "2",
                   "--model.d_hidden", "16", "--model.d_embed", "8"]

DATA_FILES = ("train.jsonl", "test.jsonl", "meta.json")


def manifest(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text())


def manifest_sans_clock(out: Path) -> dict:
    m = manifest(out)
    m.pop("wall_clock_sec")
    return m


def read_tagged_csv(path: Path, tag: str) -> list[dict]:
    lines = path.read_text().splitlines()
    assert lines[0] == tag
    return list(csv.DictReader(lines[1:]))


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("cli") / "data"
    assert main(["gen", "--out", str(out)] + TINY_GEN_ARGS) == 0
    return out


@pytest.fixture(scope="module")
def train_dir(tmp_path_factory, gen_dir) -> Path:
    out = tmp_path_factory.mktemp("cli") / "run"
    assert main(["train", "--data", str(gen_dir), "--out", str(out)]
                + TINY_TRAIN_ARGS) == 0
    return out


class TestGen:
    def test_writes_dataset_and_manifest(self, gen_dir, capsys):
        for name in DATA_FILES + ("manifest.json",):
            assert (gen_dir / name).exists()
        m = manifest(gen_dir)
        assert m["schema"] == "xmml-manifest v1"
        assert m["command"] == "gen"
        assert m["outputs"] == sorted(DATA_FILES)
        assert m["config"]["gen.n_identities_train"] == 4
        assert m["seeds"] == [0]
        assert m["inputs"] == {}

    def test_reports_sample_counts(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["gen", "--out", str(out)] + TINY_GEN_ARGS) == 0
        text = capsys.readouterr().out
        assert "train=16 samples" in text
        assert "test=12 samples" in text

    def test_rerun_is_byte_identical(self, gen_dir, tmp_path):
        again = tmp_path / "again"
        assert main(["gen", "--out", str(again)] + TINY_GEN_ARGS) == 0
        for name in DATA_FILES:
            assert (again / name).read_bytes() == (gen_dir / name).read_bytes()
        assert manifest_sans_clock(again) == manifest_sans_clock(gen_dir)

    def test_seed_flag_changes_data(self, gen_dir, tmp_path):
        other = tmp_path / "seeded"
        assert main(["gen", "--out", str(other), "--seed", "7"] + TINY_GEN_ARGS) == 0
        assert (other / "train.jsonl").read_bytes() != (gen_dir / "train.jsonl").read_bytes()
        assert manifest(other)["seeds"] == [7]

    def test_unknown_override_key_fails_cleanly(self, tmp_path, capsys):
        assert main(["gen", "--out", str(tmp_path / "x"),
                     "--gen.bogus", "3"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_flag_missing_value_fails_cleanly(self, tmp_path, capsys):
        assert main(["gen", "--out", str(tmp_path / "x"), "--gen.d_id"]) == 1
        assert "error:" in capsys.readouterr().err


class TestTrain:
    def test_writes_checkpoint_log_and_manifest(self, train_dir, gen_dir):
        assert (train_dir / "checkpoint.jsonl").exists()
        assert (train_dir / "train_log.jsonl").exists()
        m = manifest(train_dir)
        assert m["command"] == "train"
        assert m["outputs"] == ["checkpoint.jsonl", "train_log.jsonl"]
        assert m["config"]["train.epochs"] == 2
        assert set(m["inputs"]) == {str(gen_dir / n) for n in DATA_FILES}

    def test_prints_loss_and_final_metrics(self, gen_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--data", str(gen_dir), "--out", str(out)]
                    + TINY_TRAIN_ARGS) == 0
        text = capsys.readouterr().out
        assert "trained 2 epochs: loss " in text
        assert "final rank1=" in text and "gap_ratio=" in text

    def test_rerun_is_byte_identical(self, train_dir, gen_dir, tmp_path):
        again = tmp_path / "again"
        assert main(["train", "--data", str(gen_dir), "--out", str(again)]
                    + TINY_TRAIN_ARGS) == 0
        for name in ("checkpoint.jsonl", "train_log.jsonl"):
            assert (again / name).read_bytes() == (train_dir / name).read_bytes()

    def test_weight_override_echoed_in_manifest(self, gen_dir, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--data", str(gen_dir), "--out", str(out),
                     "--weights.lambda2", "0.5"] + TINY_TRAIN_ARGS) == 0
        assert manifest(out)["config"]["weights.lambda2"] == 0.5

    def test_long_schedule_echoes_effective_values(self, gen_dir, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--data", str(gen_dir), "--out", str(out),
                     "--long-schedule",
                     "--train.batches_per_epoch", "1",
                     "--train.n_ids_per_batch", "3", "--train.k_per_modality", "2",
                     "--train.eval_every", "50",
                     "--model.d_hidden", "16", "--model.d_embed", "8"]) == 0
        m = manifest(out)
        assert m["config"]["train.epochs"] == 120
        assert m["config"]["train.decay_epochs"] == [40, 70]

    def test_config_file_applies_under_flags(self, gen_dir, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"train.epochs": 3, "weights.tau": 0.2}))
        out = tmp_path / "run"
        assert main(["train", "--data", str(gen_dir), "--out", str(out),
                     "--config", str(cfg_file), "--train.epochs", "2",
                     "--train.batches_per_epoch", "2",
                     "--train.n_ids_per_batch", "3", "--train.k_per_modality", "2",
                     "--model.d_hidden", "16", "--model.d_embed", "8"]) == 0
        m = manifest(out)
        assert m["config"]["train.epochs"] == 2       # flag beats file
        assert m["config"]["weights.tau"] == 0.2      # file beats default

    def test_invalid_config_file_fails_cleanly(self, gen_dir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["train", "--data", str(gen_dir), "--out",
                     str(tmp_path / "run"), "--config", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_embeddings_exit_2(self, gen_dir, tmp_path, capsys):
        # at this rate the visual weights overflow within a few steps, so
        # the embeddings go non-finite before the loss does
        assert main(["train", "--data", str(gen_dir), "--out", str(tmp_path / "run"),
                     "--train.lr_visual", "1e6"] + TINY_TRAIN_ARGS) == 2
        assert "runtime failure: non-finite embeddings" in capsys.readouterr().err

    def test_missing_data_dir_fails_cleanly(self, tmp_path, capsys):
        assert main(["train", "--data", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "run")] + TINY_TRAIN_ARGS) == 1
        assert "error:" in capsys.readouterr().err


class TestEval:
    def test_writes_csv_report_and_manifest(self, train_dir, gen_dir, tmp_path):
        out = tmp_path / "eval"
        assert main(["eval", "--data", str(gen_dir),
                     "--checkpoint", str(train_dir / "checkpoint.jsonl"),
                     "--out", str(out)]) == 0
        rows = read_tagged_csv(out / "eval.csv", "# xmml-eval-csv v1")
        assert len(rows) == 1
        assert rows[0]["protocol"] == "R>V"
        assert rows[0]["shots"] == "multi"
        assert 0.0 <= float(rows[0]["rank1"]) <= 1.0
        assert float(rows[0]["conflict_sensitivity"]) >= 0.0
        report = json.loads((out / "eval_report.json").read_text())
        assert len(report) == 1 and len(report[0]["cmc"]) >= 1
        assert manifest(out)["command"] == "eval"

    def test_both_shot_modes_give_two_rows(self, train_dir, gen_dir, tmp_path):
        out = tmp_path / "eval"
        assert main(["eval", "--data", str(gen_dir),
                     "--checkpoint", str(train_dir / "checkpoint.jsonl"),
                     "--out", str(out), "--eval.shots", "both"]) == 0
        rows = read_tagged_csv(out / "eval.csv", "# xmml-eval-csv v1")
        assert [r["shots"] for r in rows] == ["single", "multi"]

    def test_self_retrieval_dataset_scores_perfectly(self, tmp_path, capsys):
        # duplicate every identity's single visual sample into its radio
        # slot and share the visual stem across modalities: every query's
        # nearest gallery item is its own copy
        gcfg = GeneratorConfig(n_identities_train=4, n_identities_test=3,
                               samples_per_identity_per_modality=1,
                               d_id=6, d_view=2, d_conflict=2, seed=0)
        bundle = generate_dataset(gcfg)

        def duplicated(split: Split) -> Split:
            visual = {s.identity: s.x_raw for s in split.samples if s.modality == "V"}
            return Split([s if s.modality == "V"
                          else replace(s, x_raw=visual[s.identity].copy())
                          for s in split.samples])

        data_dir = tmp_path / "data"
        data_dir.mkdir()
        save_dataset(data_dir, DatasetBundle(train=duplicated(bundle.train),
                                             test=duplicated(bundle.test),
                                             meta=bundle.meta))
        store = init_params(EncoderConfig(d_in_visual=10, d_in_text=10,
                                          n_classes=4, d_hidden=16, d_embed=8,
                                          seed=0))
        store.value("stem_r.w")[...] = store.value("stem_v.w")
        store.value("stem_r.b")[...] = store.value("stem_v.b")
        ckpt = tmp_path / "checkpoint.jsonl"
        model.save_checkpoint(ckpt, EncoderConfig(d_in_visual=10, d_in_text=10,
                                                  n_classes=4, d_hidden=16,
                                                  d_embed=8, seed=0), store)
        out = tmp_path / "eval"
        assert main(["eval", "--data", str(data_dir), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 0
        assert "rank1=1.000 map=1.000" in capsys.readouterr().out
        rows = read_tagged_csv(out / "eval.csv", "# xmml-eval-csv v1")
        assert float(rows[0]["rank1"]) == 1.0
        assert float(rows[0]["map"]) == 1.0

    def test_dimension_mismatch_fails_cleanly(self, train_dir, tmp_path, capsys):
        wide = tmp_path / "wide"
        assert main(["gen", "--out", str(wide), "--gen.n_identities_train", "4",
                     "--gen.n_identities_test", "3",
                     "--gen.samples_per_identity_per_modality", "2",
                     "--gen.d_id", "7", "--gen.d_view", "2",
                     "--gen.d_conflict", "2"]) == 0
        capsys.readouterr()
        assert main(["eval", "--data", str(wide),
                     "--checkpoint", str(train_dir / "checkpoint.jsonl"),
                     "--out", str(tmp_path / "eval")]) == 1
        assert "error:" in capsys.readouterr().err


    def test_checkpoint_missing_a_tensor_fails_cleanly(self, train_dir, gen_dir,
                                                        tmp_path, capsys):
        lines = (train_dir / "checkpoint.jsonl").read_text().splitlines(keepends=True)
        ckpt = tmp_path / "checkpoint.jsonl"
        ckpt.write_text("".join(l for l in lines if '"trunk1.w"' not in l))
        assert main(["eval", "--data", str(gen_dir), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "eval")]) == 1
        assert "missing trunk1.w" in capsys.readouterr().err

    @pytest.mark.parametrize("k_max", ["0", "-3"])
    def test_k_max_below_one_fails_cleanly(self, train_dir, gen_dir, tmp_path,
                                           capsys, k_max):
        assert main(["eval", "--data", str(gen_dir),
                     "--checkpoint", str(train_dir / "checkpoint.jsonl"),
                     "--out", str(tmp_path / "eval"), "--eval.k_max", k_max]) == 1
        assert "error: k_max must be >= 1" in capsys.readouterr().err

    def test_k_max_sets_the_cmc_length(self, train_dir, gen_dir, tmp_path):
        out = tmp_path / "eval"
        assert main(["eval", "--data", str(gen_dir),
                     "--checkpoint", str(train_dir / "checkpoint.jsonl"),
                     "--out", str(out), "--eval.k_max", "3"]) == 0
        report = json.loads((out / "eval_report.json").read_text())
        assert len(report[0]["cmc"]) == 3


class TestGradcheck:
    def test_subset_passes_and_writes_report(self, tmp_path, capsys):
        out = tmp_path / "gc"
        assert main(["gradcheck", "--out", str(out), "--batches", "2",
                     "--losses", "identity,parity"]) == 0
        text = capsys.readouterr().out
        assert "identity" in text and "ok" in text
        report = json.loads((out / "gradcheck_report.json").read_text())
        assert [r["name"] for r in report["results"]] == ["identity", "parity"]
        assert all(r["n_failed"] == 0 for r in report["results"])

    def test_corrupted_gradient_detected_with_exit_2(self, tmp_path, capsys):
        assert main(["gradcheck", "--out", str(tmp_path / "gc"), "--batches", "2",
                     "--losses", "identity,parity", "--corrupt", "identity"]) == 2
        err = capsys.readouterr().err
        assert "gradient check failed for: identity" in err

    def test_unknown_loss_name_fails_cleanly(self, tmp_path, capsys):
        assert main(["gradcheck", "--out", str(tmp_path / "gc"),
                     "--losses", "identity,nonsense"]) == 1
        assert "unknown loss name" in capsys.readouterr().err

    def test_out_root_env_var_sets_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XMML_OUT_ROOT", str(tmp_path / "root"))
        assert main(["gradcheck", "--batches", "1", "--losses", "identity"]) == 0
        assert (tmp_path / "root" / "gradcheck" / "gradcheck_report.json").exists()


class TestAblateSweep:
    def test_ablate_subset_writes_csv(self, gen_dir, tmp_path, capsys):
        out = tmp_path / "ab"
        assert main(["ablate", "--data", str(gen_dir), "--out", str(out),
                     "--labels", "baseline,full", "--seeds", "0"]
                    + TINY_TRAIN_ARGS) == 0
        rows = read_tagged_csv(out / "ablation.csv", "# xmml-ablation-csv v1")
        assert [r["method"] for r in rows] == ["baseline", "full"]
        assert rows[0]["align"] == "0" and rows[1]["align"] == "1"
        text = capsys.readouterr().out
        assert "baseline" in text and "full" in text

    def test_ablate_unknown_label_fails_cleanly(self, gen_dir, tmp_path, capsys):
        assert main(["ablate", "--data", str(gen_dir),
                     "--out", str(tmp_path / "ab"), "--labels", "nonsense"]
                    + TINY_TRAIN_ARGS) == 1
        assert "error:" in capsys.readouterr().err

    def test_sweep_fusion_counts(self, gen_dir, tmp_path):
        out = tmp_path / "sw"
        assert main(["sweep", "--data", str(gen_dir), "--out", str(out),
                     "--param", "M", "--values", "0,1", "--seeds", "0"]
                    + TINY_TRAIN_ARGS) == 0
        rows = read_tagged_csv(out / "sweep.csv", "# xmml-sweep-csv v1")
        assert [(r["param"], r["value"]) for r in rows] == [("M", "0"), ("M", "1")]

    def test_sweep_unknown_param_fails_cleanly(self, gen_dir, tmp_path, capsys):
        assert main(["sweep", "--data", str(gen_dir),
                     "--out", str(tmp_path / "sw"), "--param", "gamma",
                     "--values", "0.1"] + TINY_TRAIN_ARGS) == 1
        assert "unknown sweep parameter" in capsys.readouterr().err

    def test_bad_seed_list_fails_cleanly(self, gen_dir, tmp_path, capsys):
        assert main(["sweep", "--data", str(gen_dir),
                     "--out", str(tmp_path / "sw"), "--param", "tau",
                     "--values", "0.1", "--seeds", "a,b"] + TINY_TRAIN_ARGS) == 1
        assert "error:" in capsys.readouterr().err


class TestTopLevel:
    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0

    def test_missing_subcommand_fails_cleanly(self, capsys):
        assert main([]) == 1
        assert "error:" in capsys.readouterr().err
