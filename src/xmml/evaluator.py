"""Cross-modality retrieval evaluation: CMC, mAP, and embedding diagnostics.

Queries come from one modality, the gallery from the other; only the image
encoder is used at evaluation time. Ranking is by cosine similarity,
descending, with ties broken by gallery sample_id ascending so reports are
deterministic. Ranks are counted, not sorted: a relevant item's rank is the
number of gallery items with a higher similarity plus those with an equal
one and a smaller sample_id, which no sort's stability can change. AP for a
query is the mean of precision-at-hit over its relevant gallery items;
queries whose identity is absent from the gallery are excluded and counted.

One `evaluate` call embeds the split and measures the gallery-independent
diagnostics once, then ranks each protocol in turn. `REPORTED_METRICS`
names the numbers every artifact reports, in the order they are written.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import model
from .numerics import (ParamStore, ProtocolError, check_field_types, derive_rng,
                       pairwise_distances, rows_by_label, timed)
from .synthdata import MODALITIES, DatasetMeta, Split

# the numbers eval.csv, train-log snapshots, ablation and sweep CSVs report
REPORTED_METRICS = ("rank1", "rank5", "rank10", "map", "gap_ratio", "conflict_sensitivity")


class DiagnosticError(ProtocolError):
    """A diagnostic measured NaN or infinite; carries every diagnostic."""

    def __init__(self, message: str, diagnostics: dict[str, float]):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class Protocol:
    query_modality: str = "R"
    gallery_modality: str = "V"
    shots: str = "multi"   # "single": one gallery sample per identity
    seed: int = 0          # gallery subsampling seed for single-shot
    k_max: int = 20        # length of the reported CMC curve

    def __post_init__(self) -> None:
        check_field_types(self)
        for name in ("query_modality", "gallery_modality"):
            if getattr(self, name) not in MODALITIES:
                raise ValueError(f"{name} must be in {MODALITIES}, got {getattr(self, name)!r}")
        if self.gallery_modality == self.query_modality:
            raise ValueError(f"gallery_modality must differ from query_modality, "
                             f"got {self.gallery_modality!r} for both")
        if self.shots not in ("single", "multi"):
            raise ValueError(f"shots must be 'single' or 'multi', got {self.shots!r}")
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")


@dataclass
class RetrievalReport:
    protocol: Protocol
    cmc: np.ndarray         # cmc[k-1] = fraction of queries with a hit in top k
    map: float
    n_queries: int
    n_gallery: int
    n_excluded: int
    diagnostics: dict[str, float]

    def rank(self, k: int) -> float:
        k = min(k, len(self.cmc))
        return float(self.cmc[k - 1])

    def metrics(self) -> dict[str, float]:
        """The REPORTED_METRICS in order; conflict_sensitivity only when measured."""
        values = {"rank1": self.rank(1), "rank5": self.rank(5), "rank10": self.rank(10),
                  "map": self.map, **self.diagnostics}
        return {name: values[name] for name in REPORTED_METRICS if name in values}


def as_written(values: dict[str, float]) -> dict[str, float | None]:
    """`values` as the JSON and CSV artifacts hold them: an undefined
    gap_ratio (inf, which `modality_gap` reports when no identity has two
    samples of one modality) becomes None, i.e. JSON null or an empty CSV
    field."""
    return {name: None if name == "gap_ratio" and value == np.inf else value
            for name, value in values.items()}


def write_csv(path, kind: str, fields: Sequence[str], rows) -> None:
    """The one CSV format: a `# xmml-<kind>-csv v1` line, the header of
    `fields`, then each row (a dict keyed by `fields`) as `as_written`."""
    import csv
    with open(path, "w", newline="") as fh:
        fh.write(f"# xmml-{kind}-csv v1\n")
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow(as_written(row))


# booleans in one comparison temporary (chunk rows x relevant items x
# gallery): 512 KiB ranked faster than 256 KiB, 1 MiB or 2 MiB
_CHUNK_CELLS = 1 << 19


def cmc_map(sim: np.ndarray, query_labels: np.ndarray, gallery_labels: np.ndarray,
            gallery_ids: np.ndarray, k_max: int):
    """Core ranking metrics from a query x gallery similarity matrix.

    Returns (cmc, mean_ap, n_excluded). No gallery row is sorted: the rank
    of a relevant gallery item h is #(sim > s_h) + #(sim == s_h and
    gallery_id < id_h), counted over chunks of query rows in place. AP adds
    precision at each hit in ascending rank order, then the per-query APs
    are added in query order (sequential sums), so an independent scalar
    re-implementation that sorts produces exactly equal floats. A NaN or
    infinite similarity has no rank and raises ProtocolError.
    """
    n_q, n_g = sim.shape
    if gallery_labels.shape != (n_g,) or query_labels.shape != (n_q,):
        raise ProtocolError("label shapes do not match the similarity matrix")
    k_max = min(k_max, n_g)
    cols_of = rows_by_label(gallery_labels)
    none = np.zeros(0, dtype=np.int64)
    rel_lists = [cols_of.get(label, none) for label in query_labels.tolist()]
    n_rel = np.array([len(c) for c in rel_lists], dtype=np.int64)
    n_valid = int(np.count_nonzero(n_rel))
    if n_valid == 0:
        raise ProtocolError("every query was excluded: no identity overlaps the gallery")
    # row i: the columns of query i's relevant items, padded with column 0
    width = int(n_rel.max())
    is_rel = np.arange(width) < n_rel[:, None]
    rel_cols = np.zeros((n_q, width), dtype=np.int64)
    rel_cols[is_rel] = np.concatenate(rel_lists)

    step = max(1, _CHUNK_CELLS // (width * n_g))
    first_hit_counts = np.zeros(k_max, dtype=np.int64)
    ap_sum = 0.0
    for q0 in range(0, n_q, step):
        block = sim[q0:q0 + step]
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            raise ProtocolError(f"similarity row of query {q0 + int(np.argmin(finite))} "
                                f"holds NaN or inf")
        hits = is_rel[q0:q0 + step]
        ranks = _ranks(block, rel_cols[q0:q0 + step], hits, gallery_ids)
        n_hits = n_rel[q0:q0 + step]
        ap = np.zeros(len(block))
        for j in range(width):
            np.add(ap, (j + 1) / (ranks[:, j] + 1), out=ap, where=hits[:, j])
        valid = n_hits > 0
        first = ranks[valid, 0]
        first_hit_counts += np.bincount(first[first < k_max], minlength=k_max)
        for query_ap in (ap[valid] / n_hits[valid]).tolist():
            ap_sum += query_ap
    cmc = np.cumsum(first_hit_counts) / n_valid
    return cmc, ap_sum / n_valid, n_q - n_valid


def _ranks(block: np.ndarray, cols: np.ndarray, hits: np.ndarray,
           gallery_ids: np.ndarray) -> np.ndarray:
    """0-based ranks of the relevant items `cols` of each row, ascending.

    Entries where `hits` is False are padding and rank last (the gallery
    size). Ranking is similarity descending, ties by sample_id ascending.
    """
    n_g = block.shape[1]
    s = np.where(hits, np.take_along_axis(block, cols, axis=1), np.inf)[:, :, None]
    ahead = (block[:, None, :] > s).sum(axis=2, dtype=np.int32)
    # each relevant item equals itself; any further equal entry is a tie
    if np.count_nonzero(block[:, None, :] == s) > np.count_nonzero(hits):
        ids = gallery_ids[cols][:, :, None]
        ahead += ((block[:, None, :] == s) & (gallery_ids < ids)).sum(axis=2, dtype=np.int32)
    ranks = np.where(hits, ahead, n_g)
    ranks.sort(axis=1)
    return ranks


def embed_split(store: ParamStore, split: Split) -> dict[str, np.ndarray]:
    """The evaluation embedding pass: one encode per modality present. Each
    modality's embeddings are row-aligned with `split.rows[modality]`."""
    return {m: model.encode_visual(store, rows.x_raw, m, need_grad=False)[0]
            for m, rows in split.rows.items() if len(rows)}


def _single_shot_rows(groups: dict[int, np.ndarray], seed: int) -> np.ndarray:
    # one row per identity, drawn in identity order over rows in sample_id order
    rng = derive_rng(seed, "single-shot")
    chosen = [group[int(rng.integers(len(group)))] for group in groups.values()]
    return np.sort(np.asarray(chosen))


def _cosine_matrix(q: np.ndarray, g: np.ndarray) -> np.ndarray:
    # zero-norm rows (possible with pathological weights) score 0 everywhere
    qn = np.linalg.norm(q, axis=1, keepdims=True)
    gn = np.linalg.norm(g, axis=1, keepdims=True)
    q_hat = np.divide(q, qn, out=np.zeros_like(q), where=qn > 0)
    g_hat = np.divide(g, gn, out=np.zeros_like(g), where=gn > 0)
    return q_hat @ g_hat.T


def evaluate(store: ParamStore, split: Split, protocols: Sequence[Protocol],
             meta: DatasetMeta | None = None,
             timings: dict[str, float] | None = None) -> list[RetrievalReport]:
    """One retrieval report per protocol on a split, in order.

    The split is embedded once (one encode per modality), and the
    diagnostics, which do not depend on the gallery, are measured once and
    shared by every report. Each protocol's similarity matrix is ranked and
    dropped before the next one is built. Single-shot galleries keep one
    sample per identity, chosen by the protocol seed over samples sorted by
    sample_id, so a report does not depend on the row order the split was
    built from. Diagnostics always include the modality gap; conflict
    sensitivity needs `meta` (mixing matrices). With `timings`, the wall
    time of the phases embed, cmc_map (over all protocols), modality_gap
    and conflict_sensitivity is added to it, in seconds.

    A NaN or infinite similarity raises ProtocolError (see `cmc_map`). Once
    every protocol is ranked, the first NaN or infinite diagnostic in dict
    order raises DiagnosticError, which carries the diagnostics. The one
    exception is the undefined ratio, gap_ratio inf with intra_mean 0.0 (no
    identity has two samples of one modality): it is reported, and
    `as_written` makes it null.
    """
    # a non-finite value is reported by the checks below, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        with timed(timings, "embed"):
            emb = embed_split(store, split)
        for protocol in protocols:
            if protocol.query_modality not in emb or protocol.gallery_modality not in emb:
                raise ProtocolError(
                    f"split lacks samples for protocol {protocol.query_modality}->"
                    f"{protocol.gallery_modality}")

        with timed(timings, "modality_gap"):
            gap = modality_gap(split, emb)
        diagnostics = {name: gap[name] for name in ("intra_mean", "inter_mean", "gap_ratio")}
        if meta is not None:
            with timed(timings, "conflict_sensitivity"):
                diagnostics["conflict_sensitivity"] = conflict_sensitivity(store, meta, split,
                                                                           emb)
        reports = [_rank(split, emb, protocol, diagnostics, timings) for protocol in protocols]
        for name, value in diagnostics.items():
            if not np.isfinite(value) and not (name == "gap_ratio"
                                               and diagnostics["intra_mean"] == 0.0):
                raise DiagnosticError(f"diagnostic {name} is {value}", diagnostics)
    return reports


def _rank(split: Split, emb: dict[str, np.ndarray], protocol: Protocol,
          diagnostics: dict[str, float], timings: dict[str, float] | None) -> RetrievalReport:
    """One protocol's report; its similarity matrix lives only inside this call."""
    queries = split.rows[protocol.query_modality]
    gallery = split.rows[protocol.gallery_modality]
    e_g, g_labels, g_ids = emb[protocol.gallery_modality], gallery.identity, gallery.sample_id
    if protocol.shots == "single":
        keep = _single_shot_rows(split.by_identity[protocol.gallery_modality], protocol.seed)
        e_g, g_labels, g_ids = e_g[keep], g_labels[keep], g_ids[keep]

    sim = _cosine_matrix(emb[protocol.query_modality], e_g)
    with timed(timings, "cmc_map"):
        cmc, mean_ap, n_excluded = cmc_map(sim, queries.identity, g_labels, g_ids,
                                           protocol.k_max)
    return RetrievalReport(protocol=protocol, cmc=cmc, map=mean_ap,
                           n_queries=len(queries), n_gallery=len(g_ids),
                           n_excluded=n_excluded, diagnostics=dict(diagnostics))


def modality_gap(split: Split, emb: dict[str, np.ndarray]) -> dict[str, float]:
    """Mean same-identity embedding distances, within and across modalities.

    `emb` is `embed_split`'s output for `split`; identities are grouped by
    the split's own `by_identity` index. gap_ratio = inter / intra.
    Identities present in only one modality are skipped and counted in
    n_skipped. Identities with the same (V, R) sample counts are measured as
    one stack, one distance call per kind; each identity's sums are those of
    its own slice, and they are added over identities in ascending order.
    """
    groups_v, groups_r = split.by_identity["V"], split.by_identity["R"]
    identities = sorted(groups_v.keys() | groups_r.keys())
    shared = [y for y in identities if y in groups_v and y in groups_r]
    by_counts: dict[tuple[int, int], list[int]] = {}
    for y in shared:
        by_counts.setdefault((len(groups_v[y]), len(groups_r[y])), []).append(y)

    sums: dict[int, tuple[float, ...]] = {}   # identity -> inter, then intra V, R sums
    inter_n = 0
    intra_n = 0
    for ids in by_counts.values():
        e_v = emb["V"][np.stack([groups_v[y] for y in ids])]   # ids x k_v x d
        e_r = emb["R"][np.stack([groups_r[y] for y in ids])]
        d = pairwise_distances(e_v, e_r).reshape(len(ids), -1)
        parts = [d.sum(axis=1)]
        inter_n += d.size
        for e in (e_v, e_r):
            k = e.shape[1]
            if k >= 2:
                i, j = np.triu_indices(k, k=1)
                # take keeps each identity's pairs contiguous (the [:, i, j]
                # gather does not), so each row sums as its 1-D gather did
                pairs = np.take(pairwise_distances(e, e).reshape(len(ids), -1), i * k + j,
                                axis=1)
                parts.append(pairs.sum(axis=1))
                intra_n += pairs.size
        sums.update(zip(ids, zip(*(part.tolist() for part in parts))))

    inter_sum = 0.0
    intra_sum = 0.0
    for y in shared:
        inter_sum += sums[y][0]
        for value in sums[y][1:]:
            intra_sum += value

    inter_mean = inter_sum / inter_n if inter_n else 0.0
    intra_mean = intra_sum / intra_n if intra_n else 0.0
    ratio = inter_mean / intra_mean if intra_mean > 0 else float("inf")
    return {"intra_mean": intra_mean, "inter_mean": inter_mean,
            "gap_ratio": ratio, "n_skipped": float(len(identities) - len(shared))}


# length of each conflict-latent probe in conflict_sensitivity
_DELTA_SCALE = 1e-3


def conflict_sensitivity(store: ParamStore, meta: DatasetMeta, split: Split,
                         emb: dict[str, np.ndarray]) -> float:
    """Mean embedding response to small perturbations of the conflict latent.

    `emb` is `embed_split`'s output for `split`; only the perturbed features
    are encoded here. Raw features are rebuilt through the stored mixing
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
    for modality, f0 in emb.items():
        x = split.rows[modality].x_raw
        axes = np.arange(len(x)) % d_conflict
        deltas = _DELTA_SCALE * np.eye(d_conflict)[axes]
        x_pert = x + deltas @ by_mod[modality].T
        f1, _ = model.encode_visual(store, x_pert, modality, need_grad=False)
        resp = np.linalg.norm(f1 - f0, axis=1) / _DELTA_SCALE
        total += float(resp.sum())
        count += len(x)
    if count == 0:
        raise ProtocolError("split has no samples to probe")
    return total / count
