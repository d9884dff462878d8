"""Synthetic paired-modality identity data with controllable nuisance structure.

Each identity y owns an identity latent a_y (shared by everything showing y)
and one conflict latent c_y^m per modality, drawn independently per modality.
A sample of identity y in modality m applies a per-sample keep-mask to a_y
(attribute visibility), adds per-sample view noise v, and mixes through a
fixed modality-specific matrix:

    x_raw = W_m @ concat(mask * a_y, v, c_y^m) + eps

The paired text feature describes the same view: same mask, same conflict
reading, no view noise, mixed through a single matrix U shared by both
modalities (text has no modality gap):

    l_raw = U @ concat(mask * a_y, 0 * v, c_y^m) + eps_t

The conflict latent is the planted trap: constant within (identity,
modality) so it discriminates identities within one modality, but it
disagrees across modalities, so an encoder that relies on it matches
cross-modality queries badly.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .numerics import DimensionError, ProtocolError, derive_rng

MODALITIES = ("V", "R")

SCHEMA_VERSION = 1

# the files of a dataset directory, as written by save_dataset
DATASET_FILES = ("train.jsonl", "test.jsonl", "meta.json")


@dataclass
class GeneratorConfig:
    n_identities_train: int = 32
    n_identities_test: int = 16
    samples_per_identity_per_modality: int = 8
    d_id: int = 16
    d_view: int = 4
    d_conflict: int = 4
    sigma_view: float = 0.5
    sigma_noise: float = 0.1
    sigma_text: float | None = None   # None: fall back to sigma_noise
    mask_keep_prob: float = 0.7
    seed: int = 0

    def validate(self) -> None:
        for name in ("n_identities_train", "n_identities_test",
                     "samples_per_identity_per_modality",
                     "d_id", "d_view", "d_conflict"):
            v = getattr(self, name)
            if int(v) != v or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        for name in ("sigma_view", "sigma_noise"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.sigma_text is not None and self.sigma_text < 0:
            raise ValueError(f"sigma_text must be >= 0, got {self.sigma_text}")
        if not 0.0 < self.mask_keep_prob <= 1.0:
            raise ValueError(f"mask_keep_prob must be in (0, 1], got {self.mask_keep_prob}")

    @property
    def d_feature(self) -> int:
        return self.d_id + self.d_view + self.d_conflict

    @property
    def text_sigma(self) -> float:
        return self.sigma_noise if self.sigma_text is None else self.sigma_text


@dataclass
class Sample:
    sample_id: int
    identity: int
    modality: str
    view: int
    x_raw: np.ndarray
    l_raw: np.ndarray


@dataclass
class DatasetMeta:
    """Sidecar needed to rebuild the fixed mixing matrices exactly."""

    config: GeneratorConfig
    mix_seed: int

    def mixing_matrices(self):
        """(W_V, W_R, U); W_V != W_R, U shared across modalities."""
        d = self.config.d_feature
        scale = 1.0 / np.sqrt(d)
        w_v = scale * derive_rng(self.mix_seed, "mix", "V").standard_normal((d, d))
        w_r = scale * derive_rng(self.mix_seed, "mix", "R").standard_normal((d, d))
        u = scale * derive_rng(self.mix_seed, "mix", "text").standard_normal((d, d))
        return w_v, w_r, u

    @property
    def conflict_slice(self) -> slice:
        start = self.config.d_id + self.config.d_view
        return slice(start, start + self.config.d_conflict)


class Split:
    """A list of samples plus identity/modality indexing and class labels."""

    def __init__(self, samples: list[Sample]):
        self.samples = samples
        self._by_id_mod: dict[tuple[int, str], list[Sample]] = {}
        ids = set()
        for s in samples:
            if s.modality not in MODALITIES:
                raise ValueError(f"unknown modality tag {s.modality!r}")
            ids.add(s.identity)
            self._by_id_mod.setdefault((s.identity, s.modality), []).append(s)
        for group in self._by_id_mod.values():
            group.sort(key=lambda s: s.sample_id)
        self.identities: list[int] = sorted(ids)
        self.label_index: dict[int, int] = {y: i for i, y in enumerate(self.identities)}
        # diagnostics filled by generate_dataset, absent on splits loaded from disk
        self.conflict_latents: dict[int, dict[str, np.ndarray]] | None = None
        self.masks: dict[int, np.ndarray] | None = None

    @property
    def n_identities(self) -> int:
        return len(self.identities)

    def of(self, identity: int, modality: str) -> list[Sample]:
        return self._by_id_mod.get((identity, modality), [])

    def by_modality(self, modality: str) -> list[Sample]:
        out = [s for s in self.samples if s.modality == modality]
        out.sort(key=lambda s: s.sample_id)
        return out

    def __len__(self) -> int:
        return len(self.samples)


@dataclass
class DatasetBundle:
    train: Split
    test: Split
    meta: DatasetMeta


@dataclass
class Batch:
    """Identity-balanced batch; row i pairs one V sample and one R sample.

    `candidates[i]` lists the other rows sharing row i's identity (self
    excluded), usable as fusion partners in either modality.
    """

    x_v: np.ndarray
    x_r: np.ndarray
    l_v: np.ndarray
    l_r: np.ndarray
    labels: np.ndarray
    identities: np.ndarray
    sample_ids_v: np.ndarray
    sample_ids_r: np.ndarray
    candidates: list[list[int]] = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.x_v.shape[0]


def _generate_split(cfg: GeneratorConfig, identities: list[int], split_tag: str,
                    meta: DatasetMeta, id_offset: int) -> Split:
    w_v, w_r, u = meta.mixing_matrices()
    mix_by_mod = {"V": w_v, "R": w_r}
    rng = derive_rng(cfg.seed, "data", split_tag)
    sigma_t = cfg.text_sigma

    samples: list[Sample] = []
    conflicts: dict[int, dict[str, np.ndarray]] = {}
    masks: dict[int, np.ndarray] = {}
    next_id = id_offset
    for y in identities:
        a = rng.standard_normal(cfg.d_id)
        conflicts[y] = {m: rng.standard_normal(cfg.d_conflict) for m in MODALITIES}
        for m in MODALITIES:
            c = conflicts[y][m]
            for view in range(cfg.samples_per_identity_per_modality):
                v = cfg.sigma_view * rng.standard_normal(cfg.d_view)
                mask = (rng.random(cfg.d_id) < cfg.mask_keep_prob).astype(np.float64)
                z_img = np.concatenate([mask * a, v, c])
                z_txt = np.concatenate([mask * a, np.zeros(cfg.d_view), c])
                x = mix_by_mod[m] @ z_img + cfg.sigma_noise * rng.standard_normal(cfg.d_feature)
                l = u @ z_txt + sigma_t * rng.standard_normal(cfg.d_feature)
                samples.append(Sample(sample_id=next_id, identity=y, modality=m,
                                      view=view, x_raw=x, l_raw=l))
                masks[next_id] = mask
                next_id += 1
    split = Split(samples)
    split.conflict_latents = conflicts
    split.masks = masks
    return split


def generate_dataset(cfg: GeneratorConfig) -> DatasetBundle:
    """Deterministic train/test bundle with disjoint identity sets."""
    cfg.validate()
    meta = DatasetMeta(config=cfg, mix_seed=cfg.seed)
    train_ids = list(range(cfg.n_identities_train))
    test_ids = list(range(cfg.n_identities_train,
                          cfg.n_identities_train + cfg.n_identities_test))
    per_split = (cfg.n_identities_train * 2 * cfg.samples_per_identity_per_modality)
    train = _generate_split(cfg, train_ids, "train", meta, id_offset=0)
    test = _generate_split(cfg, test_ids, "test", meta, id_offset=per_split)
    return DatasetBundle(train=train, test=test, meta=meta)


def sample_batch(split: Split, n_ids: int, k_per_modality: int, rng_seed: int) -> Batch:
    """Identity-balanced PK batch: n_ids identities, k paired rows each."""
    if n_ids < 1 or k_per_modality < 1:
        raise ValueError("n_ids and k_per_modality must be >= 1")
    if split.n_identities < n_ids:
        raise ProtocolError(
            f"split has {split.n_identities} identities, batch wants {n_ids}")
    rng = derive_rng(rng_seed, "batch")
    ids = [int(i) for i in rng.choice(split.identities, size=n_ids, replace=False)]

    rows_x_v, rows_x_r, rows_l_v, rows_l_r = [], [], [], []
    labels, idents, sid_v, sid_r = [], [], [], []
    for y in ids:
        pool_v = split.of(y, "V")
        pool_r = split.of(y, "R")
        if len(pool_v) < k_per_modality or len(pool_r) < k_per_modality:
            raise ProtocolError(
                f"identity {y} has {len(pool_v)}/{len(pool_r)} V/R samples, "
                f"batch wants {k_per_modality} per modality")
        pick_v = rng.choice(len(pool_v), size=k_per_modality, replace=False)
        pick_r = rng.choice(len(pool_r), size=k_per_modality, replace=False)
        for j in range(k_per_modality):
            sv = pool_v[int(pick_v[j])]
            sr = pool_r[int(pick_r[j])]
            rows_x_v.append(sv.x_raw)
            rows_l_v.append(sv.l_raw)
            rows_x_r.append(sr.x_raw)
            rows_l_r.append(sr.l_raw)
            labels.append(split.label_index[y])
            idents.append(y)
            sid_v.append(sv.sample_id)
            sid_r.append(sr.sample_id)

    idents_arr = np.asarray(idents, dtype=np.int64)
    candidates = [[j for j in range(len(idents)) if j != i and idents[j] == idents[i]]
                  for i in range(len(idents))]
    return Batch(x_v=np.asarray(rows_x_v), x_r=np.asarray(rows_x_r),
                 l_v=np.asarray(rows_l_v), l_r=np.asarray(rows_l_r),
                 labels=np.asarray(labels, dtype=np.int64),
                 identities=idents_arr,
                 sample_ids_v=np.asarray(sid_v, dtype=np.int64),
                 sample_ids_r=np.asarray(sid_r, dtype=np.int64),
                 candidates=candidates)


# ---------------------------------------------------------------- file I/O

def save_split(path: Path | str, split: Split) -> None:
    """One JSON record per line: sample_id, identity, modality, view, x_raw, l_raw."""
    path = Path(path)
    with path.open("w") as fh:
        for s in split.samples:
            rec = {"sample_id": s.sample_id, "identity": s.identity,
                   "modality": s.modality, "view": s.view,
                   "x_raw": s.x_raw.tolist(), "l_raw": s.l_raw.tolist()}
            fh.write(json.dumps(rec) + "\n")


def load_split(path: Path | str) -> Split:
    samples = []
    with Path(path).open() as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}:{line_no}: bad record: {e}") from e
            samples.append(Sample(
                sample_id=int(rec["sample_id"]), identity=int(rec["identity"]),
                modality=str(rec["modality"]), view=int(rec["view"]),
                x_raw=np.asarray(rec["x_raw"], dtype=np.float64),
                l_raw=np.asarray(rec["l_raw"], dtype=np.float64)))
    if not samples:
        raise ValueError(f"{path}: no samples")
    dims = {s.x_raw.shape for s in samples} | {s.l_raw.shape for s in samples}
    if len(dims) != 1:
        raise DimensionError(f"{path}: inconsistent feature dims {sorted(dims)}")
    return Split(samples)


def save_meta(path: Path | str, meta: DatasetMeta) -> None:
    rec = {"schema": SCHEMA_VERSION, "config": asdict(meta.config),
           "mix_seed": meta.mix_seed}
    Path(path).write_text(json.dumps(rec, indent=2, sort_keys=True) + "\n")


def load_meta(path: Path | str) -> DatasetMeta:
    rec = json.loads(Path(path).read_text())
    cfg = GeneratorConfig(**rec["config"])
    return DatasetMeta(config=cfg, mix_seed=int(rec["mix_seed"]))


def save_dataset(out_dir: Path | str, bundle: DatasetBundle) -> list[str]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train, test, meta = (out / name for name in DATASET_FILES)
    save_split(train, bundle.train)
    save_split(test, bundle.test)
    save_meta(meta, bundle.meta)
    return list(DATASET_FILES)


def load_dataset(data_dir: Path | str) -> DatasetBundle:
    paths = [Path(data_dir) / name for name in DATASET_FILES]
    for path in paths:
        if not path.exists():
            raise FileNotFoundError(f"{path} missing from dataset directory")
    train, test, meta = paths
    return DatasetBundle(train=load_split(train), test=load_split(test),
                         meta=load_meta(meta))
