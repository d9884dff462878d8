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
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import evaluator, model
from .losses import EmbeddingSet, LossBreakdown, LossWeights, fuse_multiview, total_loss
from .numerics import DegenerateInputError, ParamStore, derive_seed
from .synthdata import Batch, DatasetBundle, sample_batch


class TrainingDivergedError(RuntimeError):
    """Embeddings or loss went non-finite; carries a diagnostic dump of the
    offending batch."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass
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

    def validate(self) -> None:
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
        self.weights.validate()


def with_long_schedule(cfg: TrainConfig) -> TrainConfig:
    """The long schedule: 120 epochs, rate drops at epochs 40 and 70."""
    return replace(cfg, epochs=120, decay_epochs=(40, 70))


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
class EvalRecord:
    epoch: int
    rank1: float
    rank5: float
    rank10: float
    map: float
    gap_ratio: float


@dataclass
class TrainLog:
    seed: int
    config_echo: dict
    steps: list[StepRecord] = field(default_factory=list)
    evals: list[EvalRecord] = field(default_factory=list)
    wall_clock_sec: float = 0.0   # reported via the run manifest, not serialized


@dataclass
class TrainResult:
    store: ParamStore
    encoder_config: model.EncoderConfig
    log: TrainLog


def _divergence_diagnostics(batch: Batch, emb_blocks, breakdown: LossBreakdown | None) -> dict:
    """What a diverged step dumps: the loss (None when the embeddings already
    failed), the batch's rows, and the embedding scale."""
    return {
        "breakdown": breakdown.as_dict() if breakdown is not None else None,
        "identities": batch.identities.tolist(),
        "sample_ids_v": batch.sample_ids_v.tolist(),
        "sample_ids_r": batch.sample_ids_r.tolist(),
        "max_abs_embedding": float(max(np.abs(b).max() for b in emb_blocks)),
    }


def train_step(store: ParamStore, batch: Batch, weights: LossWeights,
               lrs: dict[str, float], fuse_seed: int, state: TrainState,
               momentum: float = 0.9) -> LossBreakdown:
    """One forward/backward/update on a prepared batch. Returns the loss
    breakdown measured before the parameter update."""
    f_v, cache_fv = model.encode_visual(store, batch.x_v, "V")
    f_r, cache_fr = model.encode_visual(store, batch.x_r, "R")
    t_v, cache_tv = model.encode_text(store, batch.l_v)
    t_r, cache_tr = model.encode_text(store, batch.l_r)
    logits_v, cache_cv = model.classify(store, f_v)
    logits_r, cache_cr = model.classify(store, f_r)
    emb_blocks = (f_v, f_r, t_v, t_r)

    try:
        emb = EmbeddingSet(f_v=f_v, f_r=f_r, t_v=t_v, t_r=t_r, labels=batch.labels)
    except DegenerateInputError as e:
        # the set's own finiteness check doubles as the embedding divergence check
        raise TrainingDivergedError(f"non-finite embeddings: {e}",
                                    _divergence_diagnostics(batch, emb_blocks, None)) from e
    fused = None
    if weights.lambda2 > 0 or weights.lambda3 > 0:
        fused = fuse_multiview(emb, batch.candidates, weights.n_fuse, fuse_seed,
                               cross_modal=weights.cross_modal_fusion)
    res = total_loss(emb, fused, logits_v, logits_r, weights)

    if not np.isfinite(res.breakdown.total):
        raise TrainingDivergedError(
            f"non-finite loss {res.breakdown.total!r}",
            _divergence_diagnostics(batch, emb_blocks, res.breakdown))

    store.zero_grads()
    d_fv = res.grads.f_v + model.classify_backward(store, cache_cv, res.grad_logits_v)
    d_fr = res.grads.f_r + model.classify_backward(store, cache_cr, res.grad_logits_r)
    model.encode_visual_backward(store, cache_fv, d_fv)
    model.encode_visual_backward(store, cache_fr, d_fr)
    model.encode_text_backward(store, cache_tv, res.grads.t_v)
    model.encode_text_backward(store, cache_tr, res.grads.t_r)

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
    first = data.train.samples[0]
    return model.EncoderConfig(
        d_in_visual=first.x_raw.shape[0], d_in_text=first.l_raw.shape[0],
        n_classes=data.train.n_identities,
        d_hidden=cfg.d_hidden, d_embed=cfg.d_embed,
        init_scale=cfg.init_scale, seed=cfg.seed)


_SNAPSHOT_PROTOCOL = evaluator.Protocol(query_modality="R", gallery_modality="V",
                                        shots="multi", seed=0)


def run_training(cfg: TrainConfig, data: DatasetBundle) -> TrainResult:
    """Full training run on the bundle's train split, snapshotting retrieval
    on the test split every `eval_every` epochs."""
    cfg.validate()
    enc_cfg = encoder_config_for(cfg, data)
    store = model.init_params(enc_cfg)
    state = TrainState.for_store(store)

    log = TrainLog(seed=cfg.seed, config_echo=_config_echo(cfg))
    t0 = time.perf_counter()
    for epoch in range(cfg.epochs):
        lrs = lr_at(epoch, cfg)
        for step in range(cfg.batches_per_epoch):
            batch = sample_batch(data.train, cfg.n_ids_per_batch,
                                 cfg.k_per_modality,
                                 derive_seed(cfg.seed, "batch", epoch, step))
            breakdown = train_step(store, batch, cfg.weights, lrs,
                                   derive_seed(cfg.seed, "fuse", epoch, step),
                                   state, momentum=cfg.momentum)
            log.steps.append(StepRecord(epoch=epoch, step=step, breakdown=breakdown))
        if (epoch + 1) % cfg.eval_every == 0 or epoch == cfg.epochs - 1:
            report = evaluator.evaluate(store, data.test, _SNAPSHOT_PROTOCOL)
            log.evals.append(EvalRecord(
                epoch=epoch, rank1=report.rank(1), rank5=report.rank(5),
                rank10=report.rank(10), map=report.map,
                gap_ratio=report.diagnostics["gap_ratio"]))
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
                             "config": log.config_echo}, sort_keys=True) + "\n")
        for s in log.steps:
            fh.write(json.dumps({"kind": "step", "epoch": s.epoch, "step": s.step,
                                 **s.breakdown.as_dict()}) + "\n")
        for e in log.evals:
            fh.write(json.dumps({"kind": "eval", "epoch": e.epoch,
                                 "rank1": e.rank1, "rank5": e.rank5,
                                 "rank10": e.rank10, "map": e.map,
                                 "gap_ratio": e.gap_ratio}) + "\n")


def load_train_log_records(path: Path | str) -> list[dict]:
    records = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
