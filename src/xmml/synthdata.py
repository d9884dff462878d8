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
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .numerics import (DimensionError, ProtocolError, check_field_types, derive_rng,
                       float64_vector, rows_by_label)

MODALITIES = ("V", "R")

SCHEMA_VERSION = 1

# the files of a dataset directory, as written by save_dataset
DATASET_FILES = ("train.jsonl", "test.jsonl", "meta.json")


@dataclass(frozen=True)
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

    def __post_init__(self) -> None:
        check_field_types(self)
        for name in ("n_identities_train", "n_identities_test",
                     "samples_per_identity_per_modality",
                     "d_id", "d_view", "d_conflict"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("sigma_view", "sigma_noise", "sigma_text"):
            if (getattr(self, name) or 0) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 < self.mask_keep_prob <= 1.0:
            raise ValueError(f"mask_keep_prob must be in (0, 1], got {self.mask_keep_prob}")

    @property
    def d_feature(self) -> int:
        return self.d_id + self.d_view + self.d_conflict

    @property
    def text_sigma(self) -> float:
        return self.sigma_noise if self.sigma_text is None else self.sigma_text


@dataclass(frozen=True)
class DatasetMeta:
    """Sidecar needed to rebuild the fixed mixing matrices exactly."""

    config: GeneratorConfig
    mix_seed: int

    def __post_init__(self) -> None:
        check_field_types(self)

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


@dataclass
class Rows:
    """One modality's rows of a split as columns, sorted by sample_id."""

    sample_id: np.ndarray   # int64, (n,)
    identity: np.ndarray    # int64, (n,)
    view: np.ndarray        # int64, (n,)
    x_raw: np.ndarray       # float64, (n, d)
    l_raw: np.ndarray       # float64, (n, d)

    def __len__(self) -> int:
        return len(self.sample_id)


class RepeatedSampleIdError(ValueError):
    """A sample_id given to Split twice; `row` and `first` index the input
    row that repeats it and the one that holds it first."""

    def __init__(self, sample_id: int, row: int, first: int):
        super().__init__(f"sample_id {sample_id} repeats")
        self.row, self.first = row, first


def _check_unique(sample_id: np.ndarray) -> None:
    """Raise RepeatedSampleIdError at the first entry equal to an earlier one."""
    order = np.argsort(sample_id, kind="stable")
    later = order[1:][sample_id[order[1:]] == sample_id[order[:-1]]]
    if later.size:
        row = int(later.min())
        first = int(np.flatnonzero(sample_id == sample_id[row])[0])
        raise RepeatedSampleIdError(sample_id[row], row, first)


class Split:
    """A split as one `Rows` store per modality, plus identity indexing and
    class labels. Built from six equal-length columns in any row order; a
    sample_id may occur only once in a split. `by_identity[m]` maps each
    identity, ascending, to the indices into rows[m] of its rows, by
    sample_id."""

    def __init__(self, sample_id, identity, modality, view, x_raw, l_raw):
        sample_id, identity, view = (np.asarray(c, dtype=np.int64)
                                     for c in (sample_id, identity, view))
        x_raw, l_raw = np.asarray(x_raw, dtype=np.float64), np.asarray(l_raw, dtype=np.float64)
        modality = np.asarray(modality, dtype=str)
        unknown = sorted(set(modality.tolist()) - set(MODALITIES))
        if unknown:
            raise ValueError(f"unknown modality tag {unknown[0]!r}")
        _check_unique(sample_id)
        self.rows: dict[str, Rows] = {}
        for m in MODALITIES:
            picked = np.flatnonzero(modality == m)
            picked = picked[np.argsort(sample_id[picked], kind="stable")]
            self.rows[m] = Rows(sample_id[picked], identity[picked], view[picked],
                                x_raw[picked], l_raw[picked])
        self.by_identity = {m: rows_by_label(rows.identity) for m, rows in self.rows.items()}
        self.identities: list[int] = np.unique(identity).tolist()
        self.label_index: dict[int, int] = {y: i for i, y in enumerate(self.identities)}

    def of(self, identity: int, modality: str) -> np.ndarray:
        """Indices into rows[modality] of the identity's rows, by sample_id."""
        return self.by_identity[modality].get(identity, np.zeros(0, dtype=np.int64))

    def __len__(self) -> int:
        return sum(len(r) for r in self.rows.values())


@dataclass
class DatasetBundle:
    train: Split | None   # None when load_dataset was not asked for it
    test: Split | None
    meta: DatasetMeta


@dataclass
class Batch:
    """Identity-balanced batch; row i pairs one V sample and one R sample.

    Rows of one identity share a label; `losses.fuse_multiview` draws each
    row's fusion partners from the other rows with its label.
    """

    x_v: np.ndarray
    x_r: np.ndarray
    l_v: np.ndarray
    l_r: np.ndarray
    labels: np.ndarray
    identities: np.ndarray
    sample_ids_v: np.ndarray
    sample_ids_r: np.ndarray


def _generate_split(cfg: GeneratorConfig, identities: range, split_tag: str,
                    meta: DatasetMeta, id_offset: int):
    """(split, conflict latents by identity and modality, attribute keep-masks
    by sample_id): the split and the planted values it was drawn from."""
    w_v, w_r, u = meta.mixing_matrices()
    mix_by_mod = {"V": w_v, "R": w_r}
    rng = derive_rng(cfg.seed, "data", split_tag)
    sigma_t = cfg.text_sigma

    rows = []   # (identity, modality, view, x_raw, l_raw), in sample_id order
    conflicts: dict[int, dict[str, np.ndarray]] = {}
    masks: dict[int, np.ndarray] = {}
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
                masks[id_offset + len(rows)] = mask
                rows.append((y, m, view, x, l))
    sample_ids = np.arange(id_offset, id_offset + len(rows))
    return Split(sample_ids, *zip(*rows)), conflicts, masks


def generate_dataset(cfg: GeneratorConfig) -> DatasetBundle:
    """Deterministic train/test bundle with disjoint identity sets."""
    meta = DatasetMeta(config=cfg, mix_seed=cfg.seed)
    n_train = cfg.n_identities_train
    train, _, _ = _generate_split(cfg, range(n_train), "train", meta, id_offset=0)
    test, _, _ = _generate_split(cfg, range(n_train, n_train + cfg.n_identities_test),
                                 "test", meta, id_offset=len(train))
    return DatasetBundle(train=train, test=test, meta=meta)


def sample_batch(split: Split, n_ids: int, k_per_modality: int, rng_seed: int) -> Batch:
    """Identity-balanced PK batch: n_ids identities, k paired rows each."""
    if n_ids < 1 or k_per_modality < 1:
        raise ValueError("n_ids and k_per_modality must be >= 1")
    if len(split.identities) < n_ids:
        raise ProtocolError(
            f"split has {len(split.identities)} identities, batch wants {n_ids}")
    rng = derive_rng(rng_seed, "batch")
    ids = [int(i) for i in rng.choice(split.identities, size=n_ids, replace=False)]

    at_v, at_r = [], []
    for y in ids:
        pool_v = split.of(y, "V")
        pool_r = split.of(y, "R")
        if len(pool_v) < k_per_modality or len(pool_r) < k_per_modality:
            raise ProtocolError(
                f"identity {y} has {len(pool_v)}/{len(pool_r)} V/R samples, "
                f"batch wants {k_per_modality} per modality")
        at_v.append(pool_v[rng.choice(len(pool_v), size=k_per_modality, replace=False)])
        at_r.append(pool_r[rng.choice(len(pool_r), size=k_per_modality, replace=False)])

    at_v, at_r = np.concatenate(at_v), np.concatenate(at_r)
    v, r = split.rows["V"], split.rows["R"]
    labels = np.asarray([split.label_index[y] for y in ids], dtype=np.int64)
    return Batch(x_v=v.x_raw[at_v], x_r=r.x_raw[at_r], l_v=v.l_raw[at_v], l_r=r.l_raw[at_r],
                 labels=np.repeat(labels, k_per_modality),
                 identities=np.repeat(np.asarray(ids, dtype=np.int64), k_per_modality),
                 sample_ids_v=v.sample_id[at_v], sample_ids_r=r.sample_id[at_r])


# ---------------------------------------------------------------- file I/O

# a save_split record's fields, in Split's column order, with their JSON types
_FIELDS = {"sample_id": int, "identity": int, "modality": str, "view": int,
           "x_raw": list, "l_raw": list}


def save_split(path: Path | str, split: Split) -> None:
    """One JSON record per line, in sample_id order, with the _FIELDS."""
    order = sorted((sid, m, i) for m, rows in split.rows.items()
                   for i, sid in enumerate(rows.sample_id.tolist()))
    with Path(path).open("w") as fh:
        for sid, m, i in order:
            rows = split.rows[m]
            values = (sid, int(rows.identity[i]), m, int(rows.view[i]),
                      rows.x_raw[i].tolist(), rows.l_raw[i].tolist())
            fh.write(json.dumps(dict(zip(_FIELDS, values)), allow_nan=False) + "\n")


def _parse_record(line: bytes) -> list:
    """One save_split record as Split's six column values, features as
    arrays; raises ValueError for a record of any other shape."""
    rec = json.loads(line)   # a JSONDecodeError or UnicodeDecodeError is a ValueError
    values = []
    for name, kind in _FIELDS.items():
        if not isinstance(rec, dict) or name not in rec:
            raise ValueError(f"record lacks {name!r}")
        value = rec[name]
        if type(value) is not kind:
            raise ValueError(f"{name} is {type(value).__name__}, not {kind.__name__}")
        if name == "modality" and value not in MODALITIES:
            raise ValueError(f"unknown modality tag {value!r}")
        if kind is int and not -2**63 <= value < 2**63:
            raise ValueError(f"{name} {value} is outside the int64 range")
        values.append(float64_vector(value, name) if kind is list else value)
    return values


def load_split(path: Path | str) -> Split:
    """A split from save_split's format, lines in any order; raises
    ValueError at a bad line. Streams: one pass counts the records, the
    next checks each record and copies its vectors into its row of the
    preallocated feature matrices."""
    with Path(path).open("rb") as fh:   # decoded per line, so a bad byte names it
        n = sum(1 for line in fh if line.strip())
    if not n:
        raise ValueError(f"{path}: no samples")
    line_nos = np.empty(n, dtype=np.int64)
    ints = np.empty((3, n), dtype=np.int64)   # sample_id, identity, view
    modality = np.empty(n, dtype="<U1")
    dims: set[tuple[int, ...]] = set()
    row = 0
    with Path(path).open("rb") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                sample_id, identity, m, view, x, l = _parse_record(line)
            except ValueError as e:
                raise ValueError(f"{path}:{line_no}: {e}") from e
            if not dims:
                x_raw, l_raw = np.empty((n,) + x.shape), np.empty((n,) + x.shape)
            dims.update((x.shape, l.shape))
            if len(dims) == 1:
                x_raw[row], l_raw[row] = x, l
            line_nos[row], modality[row] = line_no, m
            ints[:, row] = sample_id, identity, view
            row += 1
    if len(dims) != 1:
        raise DimensionError(f"{path}: inconsistent feature dims {sorted(dims)}")
    for name, column in (("x_raw", x_raw), ("l_raw", l_raw)):
        # json.loads reads NaN, Infinity and 1e999; checked per column, not per record
        bad = np.flatnonzero(~np.isfinite(column).all(axis=1))
        if len(bad):
            raise ValueError(f"{path}:{line_nos[bad[0]]}: {name} holds NaN or inf")
    sample_id, identity, view = ints
    try:
        return Split(sample_id, identity, modality, view, x_raw, l_raw)
    except RepeatedSampleIdError as e:
        raise ValueError(f"{path}:{line_nos[e.row]}: {e} line {line_nos[e.first]}") from None


def save_meta(path: Path | str, meta: DatasetMeta) -> None:
    rec = {"schema": SCHEMA_VERSION, "config": asdict(meta.config),
           "mix_seed": meta.mix_seed}
    Path(path).write_text(json.dumps(rec, indent=2, sort_keys=True, allow_nan=False) + "\n")


def load_meta(path: Path | str) -> DatasetMeta:
    """save_meta's record; raises ValueError, naming `path`, for any other."""
    try:
        rec = json.loads(Path(path).read_text())   # a JSONDecodeError is a ValueError
        if not isinstance(rec, dict) or rec.get("schema") != SCHEMA_VERSION:
            raise ValueError(f"not a meta object of schema {SCHEMA_VERSION}")
        cfg = GeneratorConfig(**rec["config"])   # a TypeError for unknown keys
        return DatasetMeta(config=cfg, mix_seed=rec["mix_seed"])
    except KeyError as e:
        raise ValueError(f"{path}: meta lacks {e}") from e
    except (TypeError, ValueError) as e:
        raise ValueError(f"{path}: {e}") from e


def save_dataset(out_dir: Path | str, bundle: DatasetBundle) -> list[str]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train, test, meta = (out / name for name in DATASET_FILES)
    save_split(train, bundle.train)
    save_split(test, bundle.test)
    save_meta(meta, bundle.meta)
    return list(DATASET_FILES)


def load_dataset(data_dir: Path | str, splits: tuple[str, ...] = ("train", "test")
                 ) -> DatasetBundle:
    """save_dataset's directory: meta.json and the named splits, the others
    None. Raises ValueError when meta.json's feature size is not the width
    of a split read."""
    data_dir = Path(data_dir)
    paths = {name: data_dir / f"{name}.jsonl" for name in splits}
    meta = data_dir / "meta.json"
    for path in (*paths.values(), meta):
        if not path.exists():
            raise FileNotFoundError(f"{path} missing from dataset directory")
    loaded = {name: load_split(path) for name, path in paths.items()}
    bundle = DatasetBundle(train=loaded.get("train"), test=loaded.get("test"),
                           meta=load_meta(meta))
    d = bundle.meta.config.d_feature
    for name, path in paths.items():
        # the mixing matrices conflict_sensitivity rebuilds are d x d
        width = loaded[name].rows["V"].x_raw.shape[1]
        if width != d:
            raise ValueError(f"{meta}: d_feature {d} (d_id + d_view + d_conflict) does "
                             f"not match the {width}-wide features of {path}")
    return bundle
