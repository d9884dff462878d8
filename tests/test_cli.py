"""End-to-end command-line runs, exercised in-process: artifact layout,
manifests, override plumbing, exit codes, and rerun determinism."""

from __future__ import annotations

import csv
import json
import shutil
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from xmml import bench, gradcheck, model
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


def strict_json(text: str):
    """json.loads that rejects the non-standard NaN and Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


def edited_dataset(gen_dir: Path, dest: Path, edit) -> Path:
    """A copy of the dataset in `gen_dir` whose test.jsonl first record is
    `edit(record)`, written with json.dumps defaults (NaN allowed), or
    written as is when it is bytes."""
    shutil.copytree(gen_dir, dest)
    lines = (dest / "test.jsonl").read_bytes().splitlines()
    line = edit(json.loads(lines[0]))
    lines[0] = line if isinstance(line, bytes) else json.dumps(line).encode()
    (dest / "test.jsonl").write_bytes(b"\n".join(lines) + b"\n")
    return dest


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

    @pytest.mark.parametrize("flag", ["--gen.seed", "--seed"])
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_fails_cleanly(self, tmp_path, capsys, flag, seed):
        # masked to 64 bits, 2**64 would write seed 0's dataset
        assert main(["gen", "--out", str(tmp_path / "x"), flag, seed] + TINY_GEN_ARGS) == 1
        assert capsys.readouterr().err == (
            f"error: bad value for gen.seed: seed must be in [0, 2**64), got {seed}\n")
        assert not (tmp_path / "x").exists()

    def test_largest_seed_is_taken_exactly(self, tmp_path):
        # float() would round it to 2**64, and 2**53 + 1 to 2**53
        for seed in (2**64 - 1, 2**53 + 1):
            out = tmp_path / str(seed)
            assert main(["gen", "--out", str(out), "--gen.seed", str(seed)]
                        + TINY_GEN_ARGS) == 0
            assert manifest(out)["seeds"] == [seed]
            assert manifest(out)["config"]["gen.seed"] == seed

    def test_unknown_override_key_fails_cleanly(self, tmp_path, capsys):
        assert main(["gen", "--out", str(tmp_path / "x"),
                     "--gen.bogus", "3"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_out_below_a_file_fails_cleanly(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        assert main(["gen", "--out", str(tmp_path / "file" / "x")] + TINY_GEN_ARGS) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")

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

    def test_manifest_holds_phase_times(self, train_dir):
        m = manifest(train_dir)
        assert set(m["phase_sec"]) == {"sample_batch", "forward", "fuse_multiview",
                                       "total_loss", "backward", "update", "evaluate"}
        assert all(seconds >= 0.0 for seconds in m["phase_sec"].values())
        assert sum(m["phase_sec"].values()) <= m["wall_clock_sec"]
        assert isinstance(m["peak_rss_mb"], float) and m["peak_rss_mb"] > 0

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
        # not JSON, and not UTF-8
        for text in (b"{not json", b'{"weights.tau": "\xe9"}'):
            bad.write_bytes(text)
            assert main(["train", "--data", str(gen_dir), "--out",
                         str(tmp_path / "run"), "--config", str(bad)]) == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith(f"error: {bad}: ")
            assert not (tmp_path / "run").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_embeddings_exit_2(self, gen_dir, tmp_path, capsys):
        # at this rate the visual weights overflow within a few steps, so
        # the embeddings go non-finite before the loss does
        assert main(["train", "--data", str(gen_dir), "--out", str(tmp_path / "run"),
                     "--train.lr_visual", "1e6"] + TINY_TRAIN_ARGS) == 2
        assert "runtime failure: non-finite embeddings" in capsys.readouterr().err

    def test_nan_gap_ratio_exits_2_without_warnings(self, gen_dir, tmp_path, capsys,
                                                    recwarn):
        # loss and embeddings stay finite, but the snapshot's squared
        # distances overflow, so the gap ratio is inf / inf; the first
        # non-finite diagnostic is named
        assert main(["train", "--data", str(gen_dir), "--out", str(tmp_path / "run"),
                     "--train.lr_visual", "30"] + TINY_TRAIN_ARGS) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "runtime failure: retrieval snapshot at epoch 1: diagnostic intra_mean is inf"]
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("flag, message", [
        ("--train.k_per_modality", "k_per_modality must be >= 2"),
        ("--train.n_ids_per_batch", "n_ids_per_batch must be >= 2"),
    ])
    def test_degenerate_batch_shape_is_a_config_error(self, gen_dir, tmp_path, capsys,
                                                      flag, message):
        # one row per identity fuses nothing; one identity has no negatives
        assert main(["train", "--data", str(gen_dir), "--out", str(tmp_path / "run")]
                    + TINY_TRAIN_ARGS + [flag, "1"]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("text, message", [
        ("{not json", "Expecting property name"),
        ("[]", "not a meta object of schema 1"),
        ('{"schema": 1, "mix_seed": 0}', "meta lacks 'config'"),
        ('{"schema": 2, "config": {}, "mix_seed": 0}', "not a meta object of schema 1"),
        ('{"config": {}, "mix_seed": 0}', "not a meta object of schema 1"),
        ('{"schema": 1, "config": {"d_idd": 6}, "mix_seed": 0}', "unexpected keyword"),
        ('{"schema": 1, "config": {"mask_keep_prob": true}, "mix_seed": 0}',
         "mask_keep_prob must be float, got True"),
        ('{"schema": 1, "config": {"sigma_view": "0.5"}, "mix_seed": 0}',
         "sigma_view must be float, got '0.5'"),
        ('{"schema": 1, "config": {}, "mix_seed": true}', "mix_seed must be int, got True"),
        ('{"schema": 1, "config": {}, "mix_seed": 1.7}', "mix_seed must be int, got 1.7"),
        ('{"schema": 1, "config": {}, "mix_seed": "1"}', "mix_seed must be int, got '1'"),
        # masked to 64 bits, 2**70 would rebuild seed 0's mixing matrices
        (f'{{"schema": 1, "config": {{}}, "mix_seed": {2**70}}}',
         f"mix_seed must be in [0, 2**64), got {2**70}"),
        ('{"schema": 1, "config": {}, "mix_seed": -1}',
         "mix_seed must be in [0, 2**64), got -1"),
        (f'{{"schema": 1, "config": {{"seed": {2**70}}}, "mix_seed": 0}}',
         f"seed must be in [0, 2**64), got {2**70}"),
        ('{"schema": 1, "config": {"sigma_view": NaN}, "mix_seed": 0}',
         "sigma_view must be finite, got nan"),
        ('{"schema": 1, "config": {"sigma_noise": Infinity}, "mix_seed": 0}',
         "sigma_noise must be finite, got inf"),
        # sizes that do not add up to the splits' 10-wide features
        pytest.param('{"schema": 1, "config": {"d_id": 7, "d_view": 2, "d_conflict": 2}, '
                     '"mix_seed": 0}', "d_feature 11 (d_id + d_view + d_conflict) does not "
                     "match the 10-wide features of", id="d_id_7"),
        pytest.param(f'{{"schema": 1, "config": {{"d_id": {10**400}, "d_view": 2, '
                     f'"d_conflict": 2}}, "mix_seed": 0}}', "does not match the 10-wide "
                     "features of", id="d_id_beyond_float_range"),
        pytest.param('{"schema": 1, "config": {"d_id": 6, "d_view": 2, '
                     '"d_conflict": 1000000000}, "mix_seed": 0}', "d_feature 1000000008 ",
                     id="d_conflict_1e9"),
    ])
    def test_malformed_meta_fails_cleanly(self, gen_dir, tmp_path, capsys, text, message):
        data = tmp_path / "data"
        shutil.copytree(gen_dir, data)
        (data / "meta.json").write_text(text)
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "run")]
                    + TINY_TRAIN_ARGS) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {data / 'meta.json'}: ")
        assert message in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("value", [True, 6.5])
    def test_meta_with_a_non_integer_size_fails_cleanly(self, gen_dir, tmp_path, capsys,
                                                        value):
        data = tmp_path / "data"
        shutil.copytree(gen_dir, data)
        meta = json.loads((data / "meta.json").read_text())
        meta["config"]["d_id"] = value
        (data / "meta.json").write_text(json.dumps(meta))
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "run")]
                    + TINY_TRAIN_ARGS) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {data / 'meta.json'}: d_id must be int")
        assert not (tmp_path / "run").exists()

    def test_config_directory_fails_cleanly(self, gen_dir, tmp_path, capsys):
        assert main(["train", "--data", str(gen_dir), "--out", str(tmp_path / "run"),
                     "--config", str(tmp_path)] + TINY_TRAIN_ARGS) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert not (tmp_path / "run").exists()

    def test_missing_data_dir_fails_cleanly(self, tmp_path, capsys):
        assert main(["train", "--data", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "run")] + TINY_TRAIN_ARGS) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["x_raw", "l_raw"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_feature_fails_cleanly(self, gen_dir, tmp_path, capsys,
                                              field, value):
        def poison(rec):
            rec[field][0] = value
            return rec
        data = edited_dataset(gen_dir, tmp_path / "data", poison)
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "run")]
                    + TINY_TRAIN_ARGS) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {data / 'test.jsonl'}:1: {field} holds NaN or inf")
        assert not (tmp_path / "run").exists()


class TestEval:
    def test_writes_csv_report_and_manifest(self, train_dir, gen_dir, tmp_path):
        out = tmp_path / "eval"
        assert main(["eval", "--data", str(gen_dir),
                     "--checkpoint", str(train_dir / "checkpoint.jsonl"),
                     "--out", str(out)]) == 0
        assert (out / "eval.csv").read_text().splitlines()[1] == (
            "protocol,shots,seed,rank1,rank5,rank10,map,gap_ratio,conflict_sensitivity")
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
            v, r = split.rows["V"], split.rows["R"]
            visual = dict(zip(v.identity.tolist(), v.x_raw))
            x_r = np.stack([visual[y].copy() for y in r.identity.tolist()])
            return Split(np.concatenate([v.sample_id, r.sample_id]),
                         np.concatenate([v.identity, r.identity]),
                         ["V"] * len(v) + ["R"] * len(r),
                         np.concatenate([v.view, r.view]),
                         np.concatenate([v.x_raw, x_r]),
                         np.concatenate([v.l_raw, r.l_raw]))

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
        # one sample per identity and modality: no intra pair, so the gap
        # ratio is undefined and written as null / an empty field
        assert rows[0]["gap_ratio"] == ""
        report = strict_json((out / "eval_report.json").read_text())
        assert report[0]["diagnostics"]["intra_mean"] == 0.0
        assert report[0]["diagnostics"]["gap_ratio"] is None
        strict_json((out / "manifest.json").read_text())

    @pytest.mark.parametrize("edit, message", [
        (lambda rec: {k: v for k, v in rec.items() if k != "view"}, "record lacks 'view'"),
        (lambda rec: {**rec, "identity": "7"}, "identity is str, not int"),
        (lambda rec: {**rec, "sample_id": 1.5}, "sample_id is float, not int"),
        (lambda rec: {**rec, "modality": 0}, "modality is int, not str"),
        (lambda rec: {**rec, "x_raw": "1.0"}, "x_raw is str, not list"),
        (lambda rec: {**rec, "x_raw": ["a"] * len(rec["x_raw"])}, "x_raw is not a flat list"),
        (lambda rec: {**rec, "l_raw": [rec["l_raw"]]}, "l_raw is not a flat list"),
        (lambda rec: [rec], "record lacks 'sample_id'"),
        (lambda rec: {**rec, "modality": "X"}, "unknown modality tag 'X'"),
        # numpy reads a JSON boolean among numbers as 1 or 0
        (lambda rec: {**rec, "x_raw": [True] + rec["x_raw"][1:]},
         "x_raw is not a flat list of numbers"),
        (lambda rec: {**rec, "l_raw": rec["l_raw"][:-1] + [False]},
         "l_raw is not a flat list of numbers"),
        # a record saved as Latin-1 rather than UTF-8
        (lambda rec: json.dumps({**rec, "modality": "\u00e9"}, ensure_ascii=False)
         .encode("latin-1"), "'utf-8' codec can't decode byte 0xe9"),
    ])
    def test_malformed_record_fails_cleanly(self, train_dir, gen_dir, tmp_path, capsys,
                                            edit, message):
        data = edited_dataset(gen_dir, tmp_path / "data", edit)
        assert main(["eval", "--data", str(data),
                     "--checkpoint", str(train_dir / "checkpoint.jsonl"),
                     "--out", str(tmp_path / "eval")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {data / 'test.jsonl'}:1: {message}")
        assert not (tmp_path / "eval").exists()

    def test_split_of_blank_lines_fails_cleanly(self, train_dir, gen_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(gen_dir, data)
        (data / "test.jsonl").write_text("\n  \n\t\n")
        assert main(["eval", "--data", str(data),
                     "--checkpoint", str(train_dir / "checkpoint.jsonl"),
                     "--out", str(tmp_path / "eval")]) == 1
        assert capsys.readouterr().err == f"error: {data / 'test.jsonl'}: no samples\n"
        assert not (tmp_path / "eval").exists()

    def test_short_feature_vector_fails_cleanly(self, train_dir, gen_dir, tmp_path, capsys):
        d = len(json.loads((gen_dir / "test.jsonl").read_text().splitlines()[0])["x_raw"])
        data = edited_dataset(gen_dir, tmp_path / "data",
                              lambda rec: {**rec, "x_raw": rec["x_raw"][:-1]})
        assert main(["eval", "--data", str(data),
                     "--checkpoint", str(train_dir / "checkpoint.jsonl"),
                     "--out", str(tmp_path / "eval")]) == 1
        assert capsys.readouterr().err == (f"error: {data / 'test.jsonl'}: "
                                           f"inconsistent feature dims [({d - 1},), ({d},)]\n")
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("command", ["eval", "train"])
    @pytest.mark.parametrize("field, value", [("sample_id", 2**70), ("identity", -2**63 - 1),
                                              ("view", 2**63)])
    def test_int_outside_int64_fails_cleanly(self, train_dir, gen_dir, tmp_path, capsys,
                                             command, field, value):
        data = edited_dataset(gen_dir, tmp_path / "data", lambda rec: {**rec, field: value})
        args = (["--checkpoint", str(train_dir / "checkpoint.jsonl")] if command == "eval"
                else TINY_TRAIN_ARGS)
        assert main([command, "--data", str(data), "--out", str(tmp_path / "out")]
                    + args) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {data / 'test.jsonl'}:1: "
                       f"{field} {value} is outside the int64 range\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_repeated_sample_id_fails_cleanly(self, train_dir, gen_dir, tmp_path, capsys,
                                              command):
        data = tmp_path / "data"
        shutil.copytree(gen_dir, data)
        records = [json.loads(line) for line in (data / "test.jsonl").read_text().splitlines()]
        for rec in records:
            rec["sample_id"] = 7
        (data / "test.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
        args = (["--checkpoint", str(train_dir / "checkpoint.jsonl")] if command == "eval"
                else TINY_TRAIN_ARGS)
        assert main([command, "--data", str(data), "--out", str(tmp_path / "out")]
                    + args) == 1
        err = capsys.readouterr().err
        assert err == f"error: {data / 'test.jsonl'}:2: sample_id 7 repeats line 1\n"
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("value", [8.0, True, "8", 0])
    def test_malformed_encoder_config_fails_cleanly(self, train_dir, gen_dir, tmp_path,
                                                     capsys, value):
        lines = (train_dir / "checkpoint.jsonl").read_text().splitlines(keepends=True)
        rec = json.loads(lines[0])
        assert rec["kind"] == "encoder_config"
        lines[0] = json.dumps({**rec, "d_hidden": value}) + "\n"
        ckpt = tmp_path / "checkpoint.jsonl"
        ckpt.write_text("".join(lines))
        assert main(["eval", "--data", str(gen_dir), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "eval")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {ckpt}:1: bad record: ")
        assert "d_hidden" in err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("field, value", [("init_scale", float("nan")),
                                              ("init_scale", float("inf")), ("seed", -1),
                                              ("seed", 2**64)])
    def test_encoder_config_out_of_range_fails_cleanly(self, train_dir, gen_dir, tmp_path,
                                                       capsys, field, value):
        lines = (train_dir / "checkpoint.jsonl").read_text().splitlines(keepends=True)
        lines[0] = json.dumps({**json.loads(lines[0]), field: value}) + "\n"
        ckpt = tmp_path / "checkpoint.jsonl"
        ckpt.write_text("".join(lines))
        assert main(["eval", "--data", str(gen_dir), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "eval")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {ckpt}:1: bad record: {field} must be ")
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("line, reason", [
        ('"x"', "not a JSON object"), ("null", "not a JSON object"),
        ("[]", "not a JSON object"), (None, "a second encoder_config record")])
    def test_record_not_one_object_or_config_fails_cleanly(self, train_dir, gen_dir,
                                                           tmp_path, capsys, line, reason):
        lines = (train_dir / "checkpoint.jsonl").read_text().splitlines(keepends=True)
        # None: the encoder_config record again, on line 2
        lines.insert(1, lines[0] if line is None else line + "\n")
        ckpt = tmp_path / "checkpoint.jsonl"
        ckpt.write_text("".join(lines))
        assert main(["eval", "--data", str(gen_dir), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "eval")]) == 1
        assert capsys.readouterr().err == f"error: {ckpt}:2: bad record: {reason}\n"
        assert not (tmp_path / "eval").exists()

    # as float64, numpy reads true as 1.0, "0.5" as 0.5 and null as nan; an
    # integer beyond float range does not convert
    @pytest.mark.parametrize("value, reason", [
        pytest.param(True, "data is not a flat list of numbers", id="True"),
        pytest.param("0.5", "data is not a flat list of numbers", id="0.5"),
        pytest.param(None, "data is not a flat list of numbers", id="None"),
        pytest.param(10**400, "data holds a number beyond float64 range", id="10**400"),
    ])
    def test_non_number_in_tensor_data_fails_cleanly(self, train_dir, gen_dir, tmp_path,
                                                     capsys, value, reason):
        lines = (train_dir / "checkpoint.jsonl").read_text().splitlines(keepends=True)
        rec = json.loads(lines[1])
        assert rec["kind"] == "tensor"
        rec["data"][0] = value
        lines[1] = json.dumps(rec) + "\n"
        ckpt = tmp_path / "checkpoint.jsonl"
        ckpt.write_text("".join(lines))
        assert main(["eval", "--data", str(gen_dir), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "eval")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {ckpt}:2: bad record: {reason}\n"
        assert not (tmp_path / "eval").exists()

    def test_non_utf8_checkpoint_fails_cleanly(self, train_dir, gen_dir, tmp_path, capsys):
        lines = (train_dir / "checkpoint.jsonl").read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"tensor"', b'"tens\xf6r"')
        ckpt = tmp_path / "checkpoint.jsonl"
        ckpt.write_bytes(b"".join(lines))
        assert main(["eval", "--data", str(gen_dir), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "eval")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {ckpt}:2: bad record: "
                              "'utf-8' codec can't decode byte 0xf6")
        assert not (tmp_path / "eval").exists()

    def test_config_record_beyond_its_tensors_fails_without_allocating(
            self, train_dir, gen_dir, tmp_path, capsys):
        # 2**50 x 10 float64 is beyond any address space: building the
        # config's parameters would fail at once instead of filling memory
        lines = (train_dir / "checkpoint.jsonl").read_text().splitlines(keepends=True)
        rec = json.loads(lines[0])
        lines[0] = json.dumps({**rec, "d_hidden": 2**50}) + "\n"
        ckpt = tmp_path / "checkpoint.jsonl"
        ckpt.write_text("".join(lines))
        assert main(["eval", "--data", str(gen_dir), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "eval")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {ckpt}: tensors do not match the encoder config: ")
        assert "stem_v.w has shape (16, 10), config wants (1125899906842624, 10)" in err
        assert not (tmp_path / "eval").exists()

    def test_checkpoint_directory_fails_cleanly(self, gen_dir, tmp_path, capsys):
        assert main(["eval", "--data", str(gen_dir), "--checkpoint", str(tmp_path),
                     "--out", str(tmp_path / "eval")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("k_max", ["0", "-3"])
    def test_k_max_below_one_fails_cleanly(self, train_dir, gen_dir, tmp_path,
                                           capsys, k_max):
        assert main(["eval", "--data", str(gen_dir),
                     "--checkpoint", str(train_dir / "checkpoint.jsonl"),
                     "--out", str(tmp_path / "eval"), "--eval.k_max", k_max]) == 1
        assert capsys.readouterr().err == (
            f"error: bad value for eval.k_max: k_max must be >= 1, got {k_max}\n")
        assert not (tmp_path / "eval").exists()

    def test_k_max_sets_the_cmc_length(self, train_dir, gen_dir, tmp_path):
        out = tmp_path / "eval"
        assert main(["eval", "--data", str(gen_dir),
                     "--checkpoint", str(train_dir / "checkpoint.jsonl"),
                     "--out", str(out), "--eval.k_max", "3"]) == 0
        report = json.loads((out / "eval_report.json").read_text())
        assert len(report[0]["cmc"]) == 3

    def test_manifest_holds_phase_times(self, train_dir, gen_dir, tmp_path):
        out = tmp_path / "eval"
        assert main(["eval", "--data", str(gen_dir),
                     "--checkpoint", str(train_dir / "checkpoint.jsonl"),
                     "--out", str(out), "--eval.shots", "both"]) == 0
        phases = manifest(out)["phase_sec"]
        assert set(phases) == {"embed", "cmc_map", "modality_gap", "conflict_sensitivity"}
        assert all(seconds >= 0.0 for seconds in phases.values())
        peak = manifest(out)["peak_rss_mb"]
        assert isinstance(peak, float) and peak > 0

    def test_non_finite_embeddings_exit_2_without_warnings(self, train_dir, gen_dir,
                                                           tmp_path, capsys, recwarn):
        # finite weights whose activations overflow: the embeddings and so
        # the similarities hold inf and NaN
        cfg, store = model.load_checkpoint(train_dir / "checkpoint.jsonl")
        for name in store.names():
            store.value(name)[...] *= 1e120
        ckpt = tmp_path / "checkpoint.jsonl"
        model.save_checkpoint(ckpt, cfg, store)
        assert main(["eval", "--data", str(gen_dir), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "eval")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("runtime failure: similarity row")
        assert err[0].endswith("holds NaN or inf")
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "eval").exists()

    def test_non_finite_diagnostic_exits_2_without_warnings(self, train_dir, gen_dir,
                                                            tmp_path, capsys, recwarn):
        # huge but finite embeddings: the cosine ranking still works, but the
        # squared distances of the gap and the conflict response overflow
        cfg, store = model.load_checkpoint(train_dir / "checkpoint.jsonl")
        for name in ("trunk2.w", "trunk2.b"):
            store.value(name)[...] *= 1e160
        ckpt = tmp_path / "checkpoint.jsonl"
        model.save_checkpoint(ckpt, cfg, store)
        assert main(["eval", "--data", str(gen_dir), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "eval"), "--eval.shots", "both"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("runtime failure: diagnostic ")
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "eval").exists()


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

    def test_corrupted_gradient_detected_with_exit_2(self, tmp_path, capsys,
                                                     corrupt_gradcheck):
        corrupt_gradcheck("identity")
        assert main(["gradcheck", "--out", str(tmp_path / "gc"), "--batches", "2",
                     "--losses", "identity,parity"]) == 2
        err = capsys.readouterr().err
        assert "gradient check failed for: identity" in err

    def test_non_finite_loss_exits_2_without_output(self, tmp_path, capsys, monkeypatch):
        build_case = gradcheck.build_case

        def infinite_build_case(*args, **kwargs):
            evaluate, store = build_case(*args, **kwargs)
            return (lambda s, need_grad: evaluate(s, need_grad) + np.inf), store
        monkeypatch.setattr(gradcheck, "build_case", infinite_build_case)
        assert main(["gradcheck", "--out", str(tmp_path / "gc"), "--batches", "1",
                     "--losses", "identity"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("runtime failure: ")
        assert "identity" in err
        assert not (tmp_path / "gc").exists()

    def test_stacked_probe_off_the_2d_value_exits_2_without_output(self, tmp_path, capsys,
                                                                   monkeypatch):
        build_case = gradcheck.build_case

        def drifting_build_case(*args, **kwargs):
            evaluate, store = build_case(*args, **kwargs)

            def drifting(s, need_grad):
                val = evaluate(s, need_grad)
                return val if need_grad else np.nextafter(val, np.inf)
            return drifting, store
        monkeypatch.setattr(gradcheck, "build_case", drifting_build_case)
        assert main(["gradcheck", "--out", str(tmp_path / "gc"), "--batches", "1",
                     "--losses", "identity"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("runtime failure: parameter 'logits'")
        assert not (tmp_path / "gc").exists()

    def test_family_times_in_manifest_not_in_report(self, tmp_path):
        names = ["identity", "triplet", "model"]
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["gradcheck", "--out", str(out), "--batches", "2",
                         "--losses", ",".join(names)]) == 0
        a, b = ((out / "gradcheck_report.json").read_bytes() for out in outs)
        assert a == b
        assert set(json.loads(a)) == {"h", "tol", "seed", "results"}
        for out in outs:
            m = manifest(out)
            assert set(m["phase_sec"]) == set(names)
            assert all(seconds >= 0.0 for seconds in m["phase_sec"].values())
            assert sum(m["phase_sec"].values()) <= m["wall_clock_sec"]

    def test_out_at_an_existing_file_fails_cleanly(self, tmp_path, capsys):
        out = tmp_path / "gc"
        out.write_text("")
        assert main(["gradcheck", "--out", str(out), "--batches", "1",
                     "--losses", "identity"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert out.read_text() == ""

    def test_empty_list_entries_are_skipped(self, tmp_path):
        # a repeated size is legal: it weights the batch rotation
        out = tmp_path / "gc"
        assert main(["gradcheck", "--out", str(out), "--batches", "2",
                     "--losses", "identity,,", "--sizes", ",2x4,,2x4"]) == 0
        report = json.loads((out / "gradcheck_report.json").read_text())
        assert [r["name"] for r in report["results"]] == ["identity"]

    def test_repeated_loss_name_fails_cleanly(self, tmp_path, capsys):
        assert main(["gradcheck", "--out", str(tmp_path / "gc"), "--batches", "1",
                     "--losses", "identity, identity"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "loss name identity repeats" in err
        assert not (tmp_path / "gc").exists()

    def test_unknown_loss_name_fails_cleanly(self, tmp_path, capsys):
        assert main(["gradcheck", "--out", str(tmp_path / "gc"),
                     "--losses", "identity,nonsense"]) == 1
        assert "unknown loss name" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["--batches", "0"], ["--batches", "-3"], ["--sizes", "1x4"],
        ["--sizes", "4x0"],
        # NaN or inf would pass any gradient, 0 or less would fail exact ones
        ["--tol", "nan"], ["--tol", "inf"], ["--tol", "0"], ["--tol", "-1"],
    ])
    def test_check_that_checks_nothing_fails_cleanly(self, tmp_path, capsys, args):
        assert main(["gradcheck", "--out", str(tmp_path / "gc"),
                     "--losses", "identity,triplet"] + args) == 1
        out, err = capsys.readouterr()
        assert "error:" in err
        assert " ok" not in out
        assert not (tmp_path / "gc").exists()

    def test_out_root_env_var_sets_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XMML_OUT_ROOT", str(tmp_path / "root"))
        assert main(["gradcheck", "--batches", "1", "--losses", "identity"]) == 0
        assert (tmp_path / "root" / "gradcheck" / "gradcheck_report.json").exists()

    def test_weight_keys_reach_the_checks(self, tmp_path):
        names = ("contrast_fused", "total")
        args = ["--batches", "2", "--losses", ",".join(names)]
        default, fused = tmp_path / "default", tmp_path / "fused"
        assert main(["gradcheck", "--out", str(default)] + args) == 0
        assert main(["gradcheck", "--out", str(fused), "--weights.n_fuse", "3"] + args) == 0
        report = (default / "gradcheck_report.json").read_bytes()
        # the default weights check what run_all checks without any
        plain = gradcheck.run_all(names=names, n_batches=2)
        assert json.loads(report)["results"] == [asdict(s) for s in plain]
        assert (fused / "gradcheck_report.json").read_bytes() != report
        assert manifest(fused)["config"]["weights.n_fuse"] == 3


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

    def test_ablate_long_schedule_echoes_effective_values(self, gen_dir, tmp_path):
        out = tmp_path / "ab"
        assert main(["ablate", "--data", str(gen_dir), "--out", str(out),
                     "--labels", "baseline", "--seeds", "0", "--long-schedule",
                     "--train.batches_per_epoch", "1",
                     "--train.n_ids_per_batch", "3", "--train.k_per_modality", "2",
                     "--model.d_hidden", "16", "--model.d_embed", "8"]) == 0
        m = manifest(out)
        assert m["config"]["train.epochs"] == 120
        assert m["config"]["train.decay_epochs"] == [40, 70]

    def test_ablate_skips_empty_labels(self, gen_dir, tmp_path):
        out = tmp_path / "ab"
        assert main(["ablate", "--data", str(gen_dir), "--out", str(out),
                     "--labels", "baseline,", "--seeds", "0,"] + TINY_TRAIN_ARGS) == 0
        rows = read_tagged_csv(out / "ablation.csv", "# xmml-ablation-csv v1")
        assert [(r["method"], r["seed"]) for r in rows] == [("baseline", "0")]

    @pytest.mark.parametrize("command, args, message", [
        ("ablate", ["--labels", "baseline", "--seeds", "0,0"], "seed 0 repeats"),
        ("ablate", ["--labels", "baseline,baseline", "--seeds", "0"],
         "ablation label baseline repeats"),
        ("sweep", ["--param", "tau", "--values", "0.1,0.1", "--seeds", "0"],
         "value 0.1 repeats"),
        ("sweep", ["--param", "tau", "--values", "0.1", "--seeds", "1,2,1"],
         "seed 1 repeats"),
    ])
    def test_repeated_entry_fails_before_any_cell(self, gen_dir, tmp_path, capsys,
                                                  monkeypatch, command, args, message):
        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran")
        monkeypatch.setattr(bench, "run_cell", no_cell)
        out = tmp_path / "out"
        assert main([command, "--data", str(gen_dir), "--out", str(out)] + args
                    + TINY_TRAIN_ARGS) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert not out.exists()

    @pytest.mark.parametrize("param, values, message", [
        ("tau", "0.1,0.10", "values 0.1 and 0.10 are both tau=0.1"),
        ("M", "1,0,1.0", "values 1 and 1.0 are both M=1"),
    ])
    def test_values_that_coerce_to_one_fail_before_any_cell(
            self, gen_dir, tmp_path, capsys, monkeypatch, param, values, message):
        calls = []
        monkeypatch.setattr(bench, "run_cell", lambda *a, **k: calls.append(k))
        out = tmp_path / "sw"
        assert main(["sweep", "--data", str(gen_dir), "--out", str(out),
                     "--param", param, "--values", values] + TINY_TRAIN_ARGS) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and message in err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["ablate", "--labels", "baseline", "--seeds", "0"],
        ["sweep", "--param", "tau", "--values", "0.1", "--seeds", "0"],
    ])
    @pytest.mark.parametrize("flag", [["--seed", "7"], ["--seed=7"]])
    def test_seed_flag_is_rejected(self, gen_dir, tmp_path, capsys, monkeypatch,
                                   command, flag):
        # the cells train the seeds of --seeds; a --seed would be ignored
        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran")
        monkeypatch.setattr(bench, "run_cell", no_cell)
        out = tmp_path / "out"
        assert main(command + ["--data", str(gen_dir), "--out", str(out)] + flag
                    + TINY_TRAIN_ARGS) == 1
        assert capsys.readouterr().err == "error: unknown flag --seed\n"
        assert not out.exists()

    def test_ablate_unknown_label_fails_cleanly(self, gen_dir, tmp_path, capsys):
        assert main(["ablate", "--data", str(gen_dir),
                     "--out", str(tmp_path / "ab"), "--labels", "nonsense"]
                    + TINY_TRAIN_ARGS) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["ablate", "--labels", "baseline", "--seeds", "0"],
        ["sweep", "--param", "lambda4", "--values", "0"],
    ])
    def test_undefined_gap_ratio_is_an_empty_field(self, tmp_path, command):
        # one sample per identity and modality: no intra pair, so the gap
        # ratio is undefined and written as an empty field, as in eval.csv
        data, out = tmp_path / "data", tmp_path / "out"
        assert main(["gen", "--out", str(data), "--gen.samples_per_identity_per_modality", "1",
                     "--gen.n_identities_train", "8", "--gen.n_identities_test", "4"]) == 0
        assert main(command + ["--data", str(data), "--out", str(out),
                               "--train.k_per_modality", "1", "--weights.n_fuse", "0",
                               "--train.epochs", "2", "--train.batches_per_epoch", "2"]) == 0
        kind = {"ablate": "ablation", "sweep": "sweep"}[command[0]]
        rows = read_tagged_csv(out / f"{kind}.csv", f"# xmml-{kind}-csv v1")
        assert [r["gap_ratio"] for r in rows] == [""]

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

    @pytest.mark.parametrize("param,values,message", [
        ("M", "1.5", "not an integer"),
        ("M", "1,inf", "bad value for weights.n_fuse: cannot convert float infinity"),
        ("lambda1", "0.1,nan", "bad value for weights.lambda1: lambda1 must be finite"),
        ("lambda1", "0.1,-1", "lambda1 must be >= 0"),
    ])
    def test_bad_sweep_value_fails_before_any_cell(self, gen_dir, tmp_path, capsys,
                                                   monkeypatch, param, values, message):
        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran")
        monkeypatch.setattr(bench, "run_cell", no_cell)
        out = tmp_path / "sw"
        assert main(["sweep", "--data", str(gen_dir), "--out", str(out),
                     "--param", param, "--values", values] + TINY_TRAIN_ARGS) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["ablate"], ["sweep", "--param", "tau",
                                                      "--values", "0.1"]])
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_seed_fails_before_the_data(self, tmp_path, capsys, command, seed):
        out = tmp_path / "out"
        assert main(command + ["--data", str(tmp_path / "missing"), "--out", str(out),
                               "--seeds", f"0,{seed}"]) == 1
        assert capsys.readouterr().err == (
            f"error: bad seed '{seed}': seed must be in [0, 2**64), got {seed}\n")
        assert not out.exists()

    @pytest.mark.parametrize("param, values, message", [
        ("gamma", "0.1", "unknown sweep parameter 'gamma'"),
        ("lambda1", "-1", "lambda1 must be >= 0"),
    ])
    def test_sweep_checks_its_grid_before_the_data(self, tmp_path, capsys, param, values,
                                                   message):
        out = tmp_path / "out"
        assert main(["sweep", "--data", str(tmp_path / "missing"), "--out", str(out),
                     "--param", param, "--values", values]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert not out.exists()

    def test_bad_seed_list_fails_cleanly(self, gen_dir, tmp_path, capsys):
        assert main(["sweep", "--data", str(gen_dir),
                     "--out", str(tmp_path / "sw"), "--param", "tau",
                     "--values", "0.1", "--seeds", "a,b"] + TINY_TRAIN_ARGS) == 1
        assert "error:" in capsys.readouterr().err


class TestConfigChecks:
    """Every command builds every config section before any work, so a bad
    value of any key, run by the command or not, exits 1 naming its key."""

    BAD_KEYS = [
        ("train", ["--gen.seed", "-5", "--eval.k_max", "0"], "gen.seed"),
        ("gradcheck", ["--train.epochs", "0", "--gen.sigma_view", "-1"], "gen.sigma_view"),
        ("gen", ["--weights.tau", "0", "--train.lr_visual", "-1"], "weights.tau"),
        ("eval", ["--gen.sigma_view", "-1"], "gen.sigma_view"),
        ("ablate", ["--gen.d_id", "0"], "gen.d_id"),
        ("train", ["--weights.tau", "nan"], "weights.tau"),
        ("sweep", ["--param", "lambda1", "--values", "0.1,nan"], "weights.lambda1"),
        ("train", ["--model.d_hidden", "0"], "model.d_hidden"),
        ("eval", ["--eval.gallery_modality", "R"], "eval.gallery_modality"),
        # ablate and sweep rank one protocol
        ("ablate", ["--eval.shots", "both"], "eval.shots"),
        ("sweep", ["--param", "tau", "--values", "0.1", "--eval.shots", "both"], "eval.shots"),
    ]

    @pytest.mark.parametrize("command, flags, key", BAD_KEYS,
                             ids=[f"{command}-{key}" for command, _, key in BAD_KEYS])
    def test_any_bad_key_exits_1_naming_it(self, train_dir, gen_dir, tmp_path, capsys,
                                            command, flags, key):
        inputs = {"gen": [], "gradcheck": [],
                  "eval": ["--data", str(gen_dir),
                           "--checkpoint", str(train_dir / "checkpoint.jsonl")]}
        out = tmp_path / "out"
        assert main([command, "--out", str(out)]
                    + inputs.get(command, ["--data", str(gen_dir)]) + flags) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: bad value for {key}: ")
        assert not out.exists()

    @pytest.mark.parametrize("split", ["test", "train"])
    def test_eval_reads_meta_and_its_split_only(self, train_dir, gen_dir, tmp_path, split):
        data = tmp_path / "data"
        shutil.copytree(gen_dir, data)
        (data / ("train.jsonl" if split == "test" else "test.jsonl")).unlink()
        out = tmp_path / "eval"
        assert main(["eval", "--data", str(data), "--split", split,
                     "--checkpoint", str(train_dir / "checkpoint.jsonl"),
                     "--out", str(out)]) == 0
        assert sorted(manifest(out)["inputs"]) == sorted(
            str(p) for p in (train_dir / "checkpoint.jsonl", data / "meta.json",
                             data / f"{split}.jsonl"))

    def test_seed_flag_beats_the_dotted_key_and_the_file(self, gen_dir, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"train.seed": 3}))
        out = tmp_path / "run"
        assert main(["train", "--data", str(gen_dir), "--out", str(out), "--seed", "5",
                     "--config", str(cfg_file), "--train.seed", "4"]
                    + TINY_TRAIN_ARGS) == 0
        assert manifest(out)["config"]["train.seed"] == 5
        assert manifest(out)["seeds"] == [5]


class TestTopLevel:
    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0

    def test_missing_subcommand_fails_cleanly(self, capsys):
        assert main([]) == 1
        assert "error:" in capsys.readouterr().err
