"""Momentum-SGD training loop with per-group learning rates and step decay.

One step samples an identity-balanced batch, runs all four encoder branches,
applies the combined objective, backpropagates the hand-derived gradients
through classifier/trunks/stems, and updates with classical momentum
(v <- mu v + g; theta <- theta - lr v). Everything is seeded; two runs with
the same config are bit-identical.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import evaluator, model
from .losses import EmbeddingSet, LossBreakdown, LossWeights, fuse_multiview, total_loss
from .numerics import DegenerateInputError, ParamStore, check_field_types, derive_seed, timed
from .synthdata import Batch, DatasetBundle, sample_batch


class TrainingDivergedError(RuntimeError):
    """Embeddings or loss went non-finite; carries a diagnostic dump of the
    offending batch."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 60
    batches_per_epoch: int = 20
    n_ids_per_batch: int = 8
    k_per_modality: int = 4
    lr_visual: float = 3e-4
    lr_text: float = 3e-4
    decay_factor: float = 0.1
    decay_epochs: tuple[int, ...] = (20, 35)
    momentum: float = 0.9
    d_hidden: int = 64
    d_embed: int = 32
    init_scale: float = 0.1
    weights: LossWeights = field(default_factory=LossWeights)
    seed: int = 0
    eval_every: int = 1

    def __post_init__(self) -> None:
        check_field_types(self)
        for name in ("epochs", "batches_per_epoch", "n_ids_per_batch",
                     "k_per_modality", "eval_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("lr_visual", "lr_text"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 < self.decay_factor <= 1.0:
            raise ValueError(f"decay_factor must be in (0, 1], got {self.decay_factor}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if list(self.decay_epochs) != sorted(set(self.decay_epochs)):
            raise ValueError(f"decay_epochs must be strictly increasing, got {self.decay_epochs}")
        # the model sizes follow EncoderConfig's rules; the data sets the rest
        model.EncoderConfig(d_in_visual=1, d_in_text=1, n_classes=2, d_hidden=self.d_hidden,
                            d_embed=self.d_embed, init_scale=self.init_scale)
        w = self.weights
        # the triplet needs a negative per anchor; fusion needs a partner per row
        if w.lambda1 > 0 and self.n_ids_per_batch < 2:
            raise ValueError(f"n_ids_per_batch must be >= 2 when lambda1 > 0, "
                             f"got {self.n_ids_per_batch}")
        if w.n_fuse > 0 and w.reads_fused and self.k_per_modality < 2:
            raise ValueError(f"k_per_modality must be >= 2 when n_fuse > 0 and "
                             f"lambda2 or lambda3 > 0, got {self.k_per_modality}")


def lr_at(epoch: int, cfg: TrainConfig) -> dict[str, float]:
    """Per-group learning rates at a (0-indexed) epoch; decay applies AT the
    listed epochs, so lr_at(40) is already reduced when 40 is a decay epoch."""
    n_drops = sum(1 for e in cfg.decay_epochs if e <= epoch)
    factor = cfg.decay_factor ** n_drops
    return {"visual": cfg.lr_visual * factor,
            "classifier": cfg.lr_visual * factor,
            "text": cfg.lr_text * factor}


@dataclass
class TrainState:
    velocity: dict[str, np.ndarray]

    @classmethod
    def for_store(cls, store: ParamStore) -> "TrainState":
        return cls(velocity={n: np.zeros_like(store.value(n)) for n in store.names()})


@dataclass
class StepRecord:
    epoch: int
    step: int
    breakdown: LossBreakdown


@dataclass
class TrainLog:
    seed: int
    config_echo: dict
    steps: list[StepRecord] = field(default_factory=list)
    evals: list[dict] = field(default_factory=list)   # {"epoch": e, **report.metrics()}
    wall_clock_sec: float = 0.0   # reported via the run manifest, not serialized


@dataclass
class TrainResult:
    store: ParamStore
    encoder_config: model.EncoderConfig
    log: TrainLog


def _divergence_diagnostics(batch: Batch, emb, breakdown: LossBreakdown | None) -> dict:
    """What a diverged step dumps: the loss (None when the embeddings already
    failed), the batch's rows, and the embedding scale."""
    return {
        "breakdown": asdict(breakdown) if breakdown is not None else None,
        "identities": batch.identities.tolist(),
        "sample_ids_v": batch.sample_ids_v.tolist(),
        "sample_ids_r": batch.sample_ids_r.tolist(),
        "max_abs_embedding": float(np.abs(emb).max()),
    }


def train_step(store: ParamStore, batch: Batch, weights: LossWeights,
               lrs: dict[str, float], fuse_seed: int, state: TrainState,
               momentum: float = 0.9,
               timings: dict[str, float] | None = None) -> LossBreakdown:
    """One forward/backward/update on a prepared batch. Returns the loss
    breakdown measured before the parameter update. With `timings`, the wall
    time of the phases forward, fuse_multiview, total_loss, backward and
    update is added to it, in seconds."""
    with timed(timings, "forward"):
        blocks, logits, caches = model.forward(store, batch.x_v, batch.x_r,
                                               batch.l_v, batch.l_r)

    try:
        emb = EmbeddingSet(blocks, batch.labels)
    except DegenerateInputError as e:
        # the set's own finiteness check doubles as the embedding divergence check
        raise TrainingDivergedError(f"non-finite embeddings: {e}",
                                    _divergence_diagnostics(batch, blocks, None)) from e
    fused = None
    if weights.reads_fused:
        with timed(timings, "fuse_multiview"):
            fused = fuse_multiview(emb, weights.n_fuse, fuse_seed,
                                   cross_modal=weights.cross_modal_fusion)
    with timed(timings, "total_loss"):
        res = total_loss(emb, fused, logits, weights)

    if not np.isfinite(res.breakdown.total):
        raise TrainingDivergedError(
            f"non-finite loss {res.breakdown.total!r}",
            _divergence_diagnostics(batch, blocks, res.breakdown))

    with timed(timings, "backward"):
        model.backward(store, caches, res.grads, res.grad_logits)

    with timed(timings, "update"):
        for group, names in model.param_groups().items():
            lr = lrs[group]
            for name in names:
                vel = state.velocity[name]
                vel *= momentum
                vel += store.grad(name)
                if lr != 0.0:
                    store.value(name)[...] -= lr * vel
    return res.breakdown


def encoder_config_for(cfg: TrainConfig, data: DatasetBundle) -> model.EncoderConfig:
    """The encoder a run of `cfg` trains: input sizes and classes from the
    bundle's train split, layer sizes, init scale and seed from `cfg`."""
    rows = data.train.rows["V"]
    return model.EncoderConfig(
        d_in_visual=rows.x_raw.shape[1], d_in_text=rows.l_raw.shape[1],
        n_classes=len(data.train.identities),
        d_hidden=cfg.d_hidden, d_embed=cfg.d_embed,
        init_scale=cfg.init_scale, seed=cfg.seed)


def run_training(cfg: TrainConfig, data: DatasetBundle,
                 timings: dict[str, float] | None = None) -> TrainResult:
    """Full training run on the bundle's train split, snapshotting retrieval
    on the test split every `eval_every` epochs under the default Protocol
    (R->V, multi-shot). A snapshot diagnostic that `evaluate` rejects raises
    TrainingDivergedError with the epoch and the diagnostics. With
    `timings`, the wall time of sample_batch, evaluate and train_step's
    phases is added to it, in seconds; the result does not depend on it."""
    enc_cfg = encoder_config_for(cfg, data)
    store = model.init_params(enc_cfg)
    state = TrainState.for_store(store)

    log = TrainLog(seed=cfg.seed, config_echo=_config_echo(cfg))
    t0 = time.perf_counter()
    # a divergence is reported by the checks below, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(cfg.epochs):
            lrs = lr_at(epoch, cfg)
            for step in range(cfg.batches_per_epoch):
                with timed(timings, "sample_batch"):
                    batch = sample_batch(data.train, cfg.n_ids_per_batch,
                                         cfg.k_per_modality,
                                         derive_seed(cfg.seed, "batch", epoch, step))
                breakdown = train_step(store, batch, cfg.weights, lrs,
                                       derive_seed(cfg.seed, "fuse", epoch, step),
                                       state, momentum=cfg.momentum, timings=timings)
                log.steps.append(StepRecord(epoch=epoch, step=step, breakdown=breakdown))
            if (epoch + 1) % cfg.eval_every == 0 or epoch == cfg.epochs - 1:
                with timed(timings, "evaluate"):
                    try:
                        report, = evaluator.evaluate(store, data.test, [evaluator.Protocol()])
                    except evaluator.DiagnosticError as e:
                        raise TrainingDivergedError(f"retrieval snapshot at epoch {epoch}: {e}",
                                                    {"epoch": epoch, **e.diagnostics}) from e
                log.evals.append({"epoch": epoch, **report.metrics()})
    log.wall_clock_sec = time.perf_counter() - t0
    return TrainResult(store=store, encoder_config=enc_cfg, log=log)


def _config_echo(cfg: TrainConfig) -> dict:
    echo = asdict(cfg)
    echo["decay_epochs"] = list(cfg.decay_epochs)
    return echo


def save_train_log(path: Path | str, log: TrainLog) -> None:
    """JSONL: a run record, then step and eval records in order.

    Wall clock is deliberately not serialized here so that reruns of the
    same config produce byte-identical logs; it lives in the run manifest.
    """
    with Path(path).open("w") as fh:
        fh.write(json.dumps({"kind": "run", "seed": log.seed,
                             "config": log.config_echo},
                            sort_keys=True, allow_nan=False) + "\n")
        for s in log.steps:
            fh.write(json.dumps({"kind": "step", "epoch": s.epoch, "step": s.step,
                                 **asdict(s.breakdown)}, allow_nan=False) + "\n")
        for e in log.evals:
            fh.write(json.dumps({"kind": "eval", **evaluator.as_written(e)},
                                allow_nan=False) + "\n")
