"""The benchmark's workloads: set-up, one operation, and the check of its output.

Each workload drives xmml in-process through its public entry points and
gets only inputs generated from the workload seed. Calls go through module
attributes (`cli.main`, not a name imported here) so the tracer's wrappers
are the ones called.
"""

from __future__ import annotations

import hashlib
import importlib.util
import inspect
import json
import math
import random
import zlib
from pathlib import Path

from xmml import bench, cli, evaluator, gradcheck, model, numerics, synthdata, trainer

from tracer import package_modules, rebind, restore


def _load_oracles():
    """The brute-force ranking oracle of the test suite, loaded read-only."""
    path = Path(__file__).resolve().parent.parent / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load_oracles()


def derive(seed: int, *tags) -> int:
    """A child seed below 10**6, stable across Python versions and platforms."""
    text = "/".join(str(t) for t in (seed,) + tags)
    return zlib.crc32(text.encode("utf8")) % 1_000_000


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Hook:
    """Calls `after(bound_args, result)` after every call of one xmml function.

    Like the tracer it rebinds every module attribute bound to the function,
    and `remove()` restores them. `original` stays callable unhooked.
    """

    def __init__(self, module, attr: str, after):
        self.original = getattr(module, attr)
        signature = inspect.signature(self.original)
        original = self.original

        def hooked(*args, **kwargs):
            result = original(*args, **kwargs)
            after(signature.bind(*args, **kwargs).arguments, result)
            return result
        self._patches = rebind(self.original, hooked, package_modules())

    def remove(self) -> None:
        restore(self._patches)


class Workload:
    """One closed-loop workload. Subclasses fill in the hooks below."""

    name = ""
    setup_reps = 3      # set-ups per untraced run; setup_s is their median
    min_ops = 2         # operations per run even past --seconds
    op_metric = ""      # the workload's name for op_s ...
    rate_metric = ("", "")  # ... and for work_per_s, with its unit
    traced_layers: tuple[str, ...] = ()  # span keys a traced run must record

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.hooks: list[Hook] = []

    def setup(self, tracer=None) -> None:
        """Make the inputs; timed and repeated for setup_s."""

    def op(self, i: int) -> None:
        """One operation; timed."""
        raise NotImplementedError

    def check(self, i: int) -> list[str]:
        """Problems with operation i's output; empty when it is correct."""
        raise NotImplementedError

    def work_units(self, i: int) -> int:
        """Units of work operation i did (train steps, FD evaluations, queries)."""
        raise NotImplementedError

    def report(self) -> dict:
        """Workload figures and fingerprints for the run record."""
        return {}

    def close(self) -> None:
        for hook in reversed(self.hooks):
            hook.remove()
        self.hooks = []


_FORWARD_BACKWARD = ("model.encode_visual", "model.encode_text", "model.classify",
                     "model.encode_visual_backward", "model.encode_text_backward",
                     "model.classify_backward")
_LOSSES = ("losses.total_loss", "losses.EmbeddingSet", "losses.identity_loss",
           "losses.weighted_triplet_loss", "losses.contrastive_pair_loss",
           "losses.contrastive_fused", "losses.fuse_multiview", "losses.distill_loss",
           "losses.distance_parity_loss")


class TrainFull(Workload):
    """`xmml train` at the default data size and the desk schedule."""

    name = "train_full"
    n_train_seeds = 2   # each runs twice in a row, so reruns are byte-compared
    min_ops = 2
    op_metric = "train_run_s"
    rate_metric = ("train_steps_per_s", "steps/s")
    traced_layers = (("synthdata.sample_batch", "synthdata.generate_dataset",
                      "synthdata.save_dataset", "synthdata.load_dataset",
                      "model.save_checkpoint", "trainer.train_step", "trainer.run_training",
                      "evaluator.evaluate", "evaluator.cmc_map", "evaluator.modality_gap",
                      "cli.main") + _FORWARD_BACKWARD + _LOSSES)

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.gen_seed = derive(seed, self.name, "gen")
        self.train_seeds = [derive(seed, self.name, "train", k)
                            for k in range(self.n_train_seeds)]
        self.data_dir = work / "data"
        self.lr_args = []
        for key, value in sorted(bench.BENCHMARK_TRAIN_OVERRIDES.items()):
            self.lr_args += [f"--train.{key}", repr(value)]
        self.rc: dict[int, int] = {}
        self.fingerprints: dict[int, dict[str, str]] = {}
        self.final: dict[int, dict[str, float]] = {}
        self.steps: dict[int, int] = {}

    def _train_seed(self, i: int) -> int:
        return self.train_seeds[(i // 2) % len(self.train_seeds)]

    def _out(self, i: int) -> Path:
        return self.work / f"train_{self._train_seed(i)}"

    def setup(self, tracer=None) -> None:
        bundle = synthdata.generate_dataset(synthdata.GeneratorConfig(seed=self.gen_seed))
        synthdata.save_dataset(self.data_dir, bundle)

    def op(self, i: int) -> None:
        self.rc[i] = cli.main(["train", "--data", str(self.data_dir),
                               "--out", str(self._out(i)),
                               "--seed", str(self._train_seed(i))] + self.lr_args)

    def check(self, i: int) -> list[str]:
        if self.rc.get(i) != 0:
            return [f"xmml train exited {self.rc.get(i)}"]
        out, seed = self._out(i), self._train_seed(i)
        problems = []
        n_steps = 0
        last_eval = None
        for line in (out / "train_log.jsonl").read_text().splitlines():
            rec = json.loads(line)
            if rec["kind"] == "step":
                n_steps += 1
                bad = [k for k, v in rec.items()
                       if isinstance(v, float) and not math.isfinite(v)]
                if bad:
                    problems.append(f"step {rec['epoch']}/{rec['step']}: "
                                    f"non-finite {', '.join(bad)}")
            elif rec["kind"] == "eval":
                last_eval = rec
        if last_eval is None:
            problems.append("train_log.jsonl has no eval record")
        self.steps[i] = n_steps
        fp = {name: sha256(out / name) for name in ("checkpoint.jsonl", "train_log.jsonl")}
        earlier = self.fingerprints.setdefault(seed, fp)
        if fp != earlier:
            problems.append(f"train seed {seed}: artifacts differ from an earlier run: "
                            f"{fp} != {earlier}")
        if last_eval is not None:
            self.final[seed] = {"rank1": last_eval["rank1"], "map": last_eval["map"]}
        return problems

    def work_units(self, i: int) -> int:
        return self.steps[i]

    def report(self) -> dict:
        seeds = sorted(self.final)
        return {
            "test_rank1": {"value": sum(self.final[s]["rank1"] for s in seeds) / len(seeds),
                           "unit": "fraction", "seeds": seeds},
            "test_map": {"value": sum(self.final[s]["map"] for s in seeds) / len(seeds),
                         "unit": "fraction", "seeds": seeds},
            "final_eval_by_seed": {str(s): self.final[s] for s in seeds},
            "fingerprints": {str(s): self.fingerprints[s] for s in sorted(self.fingerprints)},
            "generator_seed": self.gen_seed,
        }


class GradcheckSuite(Workload):
    """`gradcheck.run_all` over every family, one batch per default size."""

    name = "gradcheck_suite"
    min_ops = 2
    op_metric = "gradcheck_s"
    rate_metric = ("fd_evals_per_s", "evals/s")
    traced_layers = (("numerics.finite_difference_check", "gradcheck.build_case")
                     + tuple(f"gradcheck.{name}" for name in gradcheck.LOSS_NAMES)
                     + _FORWARD_BACKWARD + _LOSSES)
    h = 1e-5
    tol = 1e-4

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.check_seed = derive(seed, self.name, "check")
        self.n_batches = len(gradcheck.DEFAULT_SIZES)
        self.summaries: dict[int, list] = {}
        self.evals: dict[int, int] = {}
        self._current = -1
        self.hooks.append(Hook(numerics, "finite_difference_check", self._count))
        self.first: dict[str, str] | None = None

    def _count(self, args, result) -> None:
        store = args["store"]
        n_scalars = sum(store.value(name).size for name in store.names())
        self.evals[self._current] = self.evals.get(self._current, 0) + 1 + 2 * n_scalars

    def op(self, i: int) -> None:
        self._current = i
        self.summaries[i] = gradcheck.run_all(
            names=gradcheck.LOSS_NAMES, n_batches=self.n_batches,
            sizes=gradcheck.DEFAULT_SIZES, h=self.h, tol=self.tol, seed=self.check_seed)

    def check(self, i: int) -> list[str]:
        summaries = self.summaries[i]
        problems = [f"{s.name}: {s.n_failed} of {s.n_batches} batches fail at tol {self.tol}"
                    for s in summaries if s.n_failed]
        if [s.name for s in summaries] != list(gradcheck.LOSS_NAMES):
            problems.append("run_all did not check every family")
        fp = {s.name: repr(float(s.max_rel_err)) for s in summaries}
        if self.first is None:
            self.first = fp
        elif fp != self.first:
            problems.append(f"max_rel_err differs from the first operation: {fp}")
        return problems

    def work_units(self, i: int) -> int:
        return self.evals[i]

    def report(self) -> dict:
        return {
            "fingerprints": {"max_rel_err": self.first},
            "check_seed": self.check_seed,
            "n_batches": self.n_batches,
        }


class EvalLarge(Workload):
    """`xmml eval --eval.shots both` on a test split larger than the L3 cache.

    512 test identities with 8 samples per modality give a 4096 x 4096
    float64 multi-shot R->V similarity matrix: 128 MiB, above the 105 MiB
    L3 of the machine the benchmark was sized on.
    """

    name = "eval_large"
    min_ops = 2
    op_metric = "eval_s"
    rate_metric = ("eval_queries_per_s", "queries/s")
    traced_layers = ("synthdata.generate_dataset", "synthdata.save_dataset",
                     "synthdata.load_dataset", "model.encode_visual",
                     "model.load_checkpoint", "model.save_checkpoint",
                     "evaluator.evaluate", "evaluator.cmc_map", "evaluator.modality_gap",
                     "evaluator.conflict_sensitivity", "cli.main")
    n_test_ids = 512
    checkpoint_epochs = 5
    oracle_queries = 16

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.gen_seed = derive(seed, self.name, "gen")
        self.train_seed = derive(seed, self.name, "train")
        self.data_dir = work / "data"
        self.ckpt = work / "checkpoint.jsonl"
        self.out = work / "eval"
        self.rc: dict[int, int] = {}
        self.captured: list[tuple] = []
        self.report_sha: str | None = None
        self.records: list[dict] = []
        self.hooks.append(Hook(evaluator, "cmc_map", self._capture))
        self.cmc_map = self.hooks[-1].original

    def _capture(self, args, result) -> None:
        """Keep a seeded subsample of the ranked queries for the oracle."""
        sim = args["sim"]
        rng = random.Random(derive(self.seed, self.name, "oracle", *sim.shape))
        rows = sorted(rng.sample(range(sim.shape[0]), min(self.oracle_queries, sim.shape[0])))
        self.captured.append((sim[rows].copy(), args["query_labels"][rows].copy(),
                              args["gallery_labels"].copy(), args["gallery_ids"].copy(),
                              args["k_max"]))

    def setup(self, tracer=None) -> None:
        gen = synthdata.GeneratorConfig(seed=self.gen_seed, n_identities_test=self.n_test_ids)
        synthdata.save_dataset(self.data_dir, synthdata.generate_dataset(gen))
        # the checkpoint trains on the same train split (it does not depend on
        # the test size) but snapshots on a default-size test split
        small = synthdata.generate_dataset(synthdata.GeneratorConfig(seed=self.gen_seed))
        cfg = bench.benchmark_train_config(trainer.TrainConfig(
            epochs=self.checkpoint_epochs, eval_every=self.checkpoint_epochs,
            seed=self.train_seed))
        if tracer is None:
            result = trainer.run_training(cfg, small)
        else:
            with tracer.suspended():
                result = trainer.run_training(cfg, small)
        model.save_checkpoint(self.ckpt, result.encoder_config, result.store)

    def op(self, i: int) -> None:
        self.captured = []
        self.rc[i] = cli.main(["eval", "--data", str(self.data_dir),
                               "--checkpoint", str(self.ckpt), "--out", str(self.out),
                               "--eval.shots", "both"])

    def check(self, i: int) -> list[str]:
        if self.rc.get(i) != 0:
            return [f"xmml eval exited {self.rc.get(i)}"]
        problems = []
        sha = sha256(self.out / "eval_report.json")
        if self.report_sha is None:
            self.report_sha = sha
            self.records = json.loads((self.out / "eval_report.json").read_text())
        elif sha != self.report_sha:
            problems.append(f"eval_report.json differs from the first operation: {sha}")
        if len(self.captured) != 2:
            problems.append(f"expected 2 ranking calls (single, multi), saw {len(self.captured)}")
        for sim, q_labels, g_labels, g_ids, k_max in self.captured:
            cmc, mean_ap, n_excl = self.cmc_map(sim, q_labels, g_labels, g_ids, k_max)
            o_cmc, o_map, o_excl = oracles.cmc_map_oracle(sim, q_labels, g_labels, g_ids, k_max)
            if [float(c) for c in cmc] != o_cmc or mean_ap != o_map or n_excl != o_excl:
                problems.append(f"{sim.shape[0]}x{sim.shape[1]} subsample: ranking "
                                f"differs from the brute-force oracle")
        return problems

    def work_units(self, i: int) -> int:
        return sum(r["n_queries"] for r in self.records)

    def report(self) -> dict:
        return {
            "retrieval": {r["shots"]: {"rank1": r["cmc"][0], "map": r["map"],
                                       "n_queries": r["n_queries"],
                                       "n_gallery": r["n_gallery"]}
                          for r in self.records},
            "fingerprints": {"eval_report.json": self.report_sha},
            "generator_seed": self.gen_seed,
            "n_test_identities": self.n_test_ids,
        }


WORKLOADS = {w.name: w for w in (TrainFull, GradcheckSuite, EvalLarge)}
