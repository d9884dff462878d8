"""Cross-modality retrieval evaluation: CMC, mAP, and embedding diagnostics.

Queries come from one modality, the gallery from the other; only the image
encoder is used at evaluation time. Ranking is by cosine similarity,
descending, with ties broken by gallery sample_id ascending so reports are
deterministic. AP for a query is the mean of precision-at-hit over its
relevant gallery items; queries whose identity is absent from the gallery
are excluded and counted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .numerics import ParamStore, ProtocolError, derive_rng
from .synthdata import DatasetMeta, Split

MODALITIES = ("V", "R")


@dataclass
class Protocol:
    query_modality: str = "R"
    gallery_modality: str = "V"
    shots: str = "multi"   # "single": one gallery sample per identity
    seed: int = 0          # gallery subsampling seed for single-shot
    k_max: int = 20        # length of the reported CMC curve

    def validate(self) -> None:
        if self.query_modality not in MODALITIES or self.gallery_modality not in MODALITIES:
            raise ValueError(
                f"modalities must be in {MODALITIES}, got "
                f"{self.query_modality!r}/{self.gallery_modality!r}")
        if self.query_modality == self.gallery_modality:
            raise ValueError("query and gallery modalities must differ")
        if self.shots not in ("single", "multi"):
            raise ValueError(f"shots must be 'single' or 'multi', got {self.shots!r}")
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")


@dataclass
class RetrievalReport:
    cmc: np.ndarray         # cmc[k-1] = fraction of queries with a hit in top k
    map: float
    n_queries: int
    n_gallery: int
    n_excluded: int
    diagnostics: dict[str, float]

    def rank(self, k: int) -> float:
        k = min(k, len(self.cmc))
        return float(self.cmc[k - 1])


def cmc_map(sim: np.ndarray, query_labels: np.ndarray, gallery_labels: np.ndarray,
            gallery_ids: np.ndarray, k_max: int):
    """Core ranking metrics from a query x gallery similarity matrix.

    Returns (cmc, mean_ap, n_excluded). Arithmetic is kept order-stable
    (sequential sums) so an independent scalar re-implementation of the same
    definition produces exactly equal floats.
    """
    n_q, n_g = sim.shape
    if gallery_labels.shape != (n_g,) or query_labels.shape != (n_q,):
        raise ProtocolError("label shapes do not match the similarity matrix")
    k_max = min(k_max, n_g)
    first_hit_counts = np.zeros(k_max, dtype=np.int64)
    ap_sum = 0.0
    n_valid = 0
    n_excluded = 0
    for qi in range(n_q):
        # descending similarity, ties by gallery sample_id ascending
        order = np.lexsort((gallery_ids, -sim[qi]))
        rel = gallery_labels[order] == query_labels[qi]
        hits = np.flatnonzero(rel)
        if hits.size == 0:
            n_excluded += 1
            continue
        n_valid += 1
        if hits[0] < k_max:
            first_hit_counts[hits[0]] += 1
        cum = np.cumsum(rel)
        ap = 0.0
        for h in hits:
            ap += cum[h] / (h + 1)
        ap_sum += ap / hits.size
    if n_valid == 0:
        raise ProtocolError("every query was excluded: no identity overlaps the gallery")
    cmc = np.cumsum(first_hit_counts) / n_valid
    return cmc, ap_sum / n_valid, n_excluded


@dataclass
class EmbeddedRows:
    """One modality of a split, encoded once; rows sorted by sample_id."""

    x: np.ndarray        # raw image features
    emb: np.ndarray      # their embeddings
    labels: np.ndarray   # identity of each row
    ids: np.ndarray      # sample_id of each row

    def take(self, rows: np.ndarray) -> "EmbeddedRows":
        return EmbeddedRows(self.x[rows], self.emb[rows], self.labels[rows], self.ids[rows])


def embed_split(store: ParamStore, split: Split) -> dict[str, EmbeddedRows]:
    """The evaluation embedding pass: one encode per modality present."""
    out = {}
    for modality in MODALITIES:
        samples = split.by_modality(modality)
        if not samples:
            continue
        x = np.stack([s.x_raw for s in samples])
        emb, _ = model.encode_visual(store, x, modality)
        out[modality] = EmbeddedRows(
            x=x, emb=emb,
            labels=np.asarray([s.identity for s in samples], dtype=np.int64),
            ids=np.asarray([s.sample_id for s in samples], dtype=np.int64))
    return out


def _single_shot_rows(labels: np.ndarray, seed: int) -> np.ndarray:
    # one row per identity, drawn in identity order over rows in sample_id order
    rng = derive_rng(seed, "single-shot")
    chosen = []
    for identity in np.unique(labels):
        group = np.flatnonzero(labels == identity)
        chosen.append(group[int(rng.integers(len(group)))])
    return np.sort(np.asarray(chosen))


def _cosine_matrix(q: np.ndarray, g: np.ndarray) -> np.ndarray:
    # zero-norm rows (possible with pathological weights) score 0 everywhere
    qn = np.linalg.norm(q, axis=1, keepdims=True)
    gn = np.linalg.norm(g, axis=1, keepdims=True)
    q_hat = np.divide(q, qn, out=np.zeros_like(q), where=qn > 0)
    g_hat = np.divide(g, gn, out=np.zeros_like(g), where=gn > 0)
    return q_hat @ g_hat.T


def evaluate(store: ParamStore, split: Split, protocol: Protocol,
             meta: DatasetMeta | None = None) -> RetrievalReport:
    """Retrieval report for one protocol on a split.

    Each modality is encoded once; ranking and diagnostics read those rows.
    Single-shot galleries keep one sample per identity, chosen by the
    protocol seed over samples sorted by sample_id, so the report does not
    depend on the ordering of `split.samples`. Diagnostics always include
    the modality gap; conflict sensitivity needs `meta` (mixing matrices).
    """
    protocol.validate()
    rows = embed_split(store, split)
    if protocol.query_modality not in rows or protocol.gallery_modality not in rows:
        raise ProtocolError(
            f"split lacks samples for protocol {protocol.query_modality}->"
            f"{protocol.gallery_modality}")
    queries = rows[protocol.query_modality]
    gallery = rows[protocol.gallery_modality]
    if protocol.shots == "single":
        gallery = gallery.take(_single_shot_rows(gallery.labels, protocol.seed))

    sim = _cosine_matrix(queries.emb, gallery.emb)
    cmc, mean_ap, n_excluded = cmc_map(sim, queries.labels, gallery.labels,
                                       gallery.ids, protocol.k_max)

    gap = modality_gap(rows)
    diagnostics = {"intra_mean": gap["intra_mean"], "inter_mean": gap["inter_mean"],
                   "gap_ratio": gap["gap_ratio"]}
    if meta is not None:
        diagnostics["conflict_sensitivity"] = conflict_sensitivity(store, meta, rows)
    return RetrievalReport(cmc=cmc, map=mean_ap, n_queries=len(queries.ids),
                           n_gallery=len(gallery.ids), n_excluded=n_excluded,
                           diagnostics=diagnostics)


def modality_gap(rows: dict[str, EmbeddedRows]) -> dict[str, float]:
    """Mean same-identity embedding distances, within and across modalities.

    `rows` is the output of `embed_split`. gap_ratio = inter / intra.
    Identities present in only one modality are skipped and counted in
    n_skipped.
    """
    inter_sum = 0.0
    inter_n = 0
    intra_sum = 0.0
    intra_n = 0
    n_skipped = 0
    empty = np.zeros(0, dtype=np.int64)
    labels_v = rows["V"].labels if "V" in rows else empty
    labels_r = rows["R"].labels if "R" in rows else empty
    for identity in np.unique(np.concatenate([labels_v, labels_r])):
        in_v = labels_v == identity
        in_r = labels_r == identity
        if not (in_v.any() and in_r.any()):
            n_skipped += 1
            continue
        e_v = rows["V"].emb[in_v]
        e_r = rows["R"].emb[in_r]
        diff = e_v[:, None, :] - e_r[None, :, :]
        d = np.sqrt((diff * diff).sum(axis=2))
        inter_sum += float(d.sum())
        inter_n += d.size
        for e in (e_v, e_r):
            if e.shape[0] >= 2:
                dd = e[:, None, :] - e[None, :, :]
                dist = np.sqrt((dd * dd).sum(axis=2))
                iu = np.triu_indices(e.shape[0], k=1)
                intra_sum += float(dist[iu].sum())
                intra_n += len(iu[0])

    inter_mean = inter_sum / inter_n if inter_n else 0.0
    intra_mean = intra_sum / intra_n if intra_n else 0.0
    ratio = inter_mean / intra_mean if intra_mean > 0 else float("inf")
    return {"intra_mean": intra_mean, "inter_mean": inter_mean,
            "gap_ratio": ratio, "n_skipped": float(n_skipped)}


def conflict_sensitivity(store: ParamStore, meta: DatasetMeta,
                         rows: dict[str, EmbeddedRows],
                         delta_scale: float = 1e-3) -> float:
    """Mean embedding response to small perturbations of the conflict latent.

    `rows` is the output of `embed_split`; only the perturbed features are
    encoded here. Raw features are rebuilt through the stored mixing
    matrices: perturbing the conflict latent by delta shifts x_raw by
    W_m[:, conflict] @ delta. Probes cycle deterministically through the
    conflict basis vectors (sample i probes axis i mod d_conflict), and the
    reported value is the mean over samples of |f(x + shift) - f(x)| / |delta|.
    """
    w_v, w_r, _ = meta.mixing_matrices()
    cols = meta.conflict_slice
    d_conflict = meta.config.d_conflict
    by_mod = {"V": w_v[:, cols], "R": w_r[:, cols]}

    total = 0.0
    count = 0
    for modality, r in rows.items():
        axes = np.arange(len(r.x)) % d_conflict
        deltas = delta_scale * np.eye(d_conflict)[axes]
        x_pert = r.x + deltas @ by_mod[modality].T
        f1, _ = model.encode_visual(store, x_pert, modality)
        resp = np.linalg.norm(f1 - r.emb, axis=1) / delta_scale
        total += float(resp.sum())
        count += len(r.x)
    if count == 0:
        raise ProtocolError("split has no samples to probe")
    return total / count
