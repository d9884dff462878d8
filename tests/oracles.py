"""Independent scalar re-implementations used as test oracles.

Everything here is written from first principles with plain Python floats,
``math``, and ``sorted`` — deliberately sharing no code with the package —
so agreement between the two is evidence, not tautology. The ranking oracle
mirrors the package's summation order exactly, which makes float-for-float
equality a meaningful assertion.
"""

from __future__ import annotations

import math


# --------------------------------------------------------------- primitives

def softmax(xs: list[float]) -> list[float]:
    m = max(xs)
    es = [math.exp(x - m) for x in xs]
    z = sum(es)
    return [e / z for e in es]


def log_softmax_entry(xs: list[float], i: int) -> float:
    m = max(xs)
    z = sum(math.exp(x - m) for x in xs)
    return (xs[i] - m) - math.log(z)


def dot(a: list[float], b: list[float]) -> float:
    return sum(x * y for x, y in zip(a, b))


def norm(a: list[float]) -> float:
    return math.sqrt(sum(x * x for x in a))


def dist(a: list[float], b: list[float]) -> float:
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def cosine(a: list[float], b: list[float]) -> float:
    return dot(a, b) / (norm(a) * norm(b))


def _rows(x) -> list[list[float]]:
    return [[float(v) for v in row] for row in x]


# ------------------------------------------------------------------- losses

def identity_loss_oracle(logits_v, logits_r, labels) -> float:
    lv, lr = _rows(logits_v), _rows(logits_r)
    ys = [int(y) for y in labels]
    n = len(ys)
    loss = 0.0
    for block in (lv, lr):
        total = 0.0
        for i, y in enumerate(ys):
            total += -log_softmax_entry(block[i], y)
        loss += total / n
    return loss


def weighted_triplet_oracle(stack, labels) -> float:
    rows = _rows(stack)
    ys = [int(y) for y in labels]
    n = len(rows)
    total = 0.0
    for i in range(n):
        pos = [j for j in range(n) if j != i and ys[j] == ys[i]]
        neg = [j for j in range(n) if ys[j] != ys[i]]
        dp = [dist(rows[i], rows[j]) for j in pos]
        dn = [dist(rows[i], rows[j]) for j in neg]
        wp = softmax(dp)
        wn = softmax([-d for d in dn])
        a = dot(wp, dp) - dot(wn, dn)
        # log(1 + e^a), stably
        total += max(a, 0.0) + math.log1p(math.exp(-abs(a)))
    return total / n


def pair_contrastive_oracle(f, t, tau: float) -> float:
    fr, tr = _rows(f), _rows(t)
    n = len(fr)
    s = [[cosine(fr[i], tr[j]) / tau for j in range(n)] for i in range(n)]
    loss = 0.0
    for i in range(n):
        loss += -log_softmax_entry(s[i], i) / n                   # image -> text
        loss += -log_softmax_entry([s[k][i] for k in range(n)], i) / n  # text -> image
    return loss


def kd_oracle(f_v, f_r, t_v, t_r, fm_v, fm_r, tm_v, tm_r) -> float:
    n = len(f_v)
    loss = 0.0
    for single, teacher in ((f_v, fm_v), (f_r, fm_r), (t_v, tm_v), (t_r, tm_r)):
        sr, tr = _rows(single), _rows(teacher)
        loss += sum(dist(sr[i], tr[i]) ** 2 for i in range(n)) / n
    return loss


def parity_oracle(f_v, f_r, t_v, t_r) -> float:
    fv, fr = _rows(f_v), _rows(f_r)
    tv, tr = _rows(t_v), _rows(t_r)
    n = len(fv)
    a = sum((dist(fv[i], tv[i]) - dist(fv[i], tr[i])) ** 2 for i in range(n)) / n
    b = sum((dist(fr[i], tr[i]) - dist(fr[i], tv[i])) ** 2 for i in range(n)) / n
    return a + b


# ---------------------------------------------------------------- retrieval

def rank_gallery(sim_row, gallery_ids) -> list[int]:
    """Gallery order: similarity descending, ties by sample id ascending."""
    n = len(sim_row)
    return sorted(range(n), key=lambda j: (-float(sim_row[j]), int(gallery_ids[j])))


def cmc_map_oracle(sim, query_labels, gallery_labels, gallery_ids, k_max: int):
    """Brute-force CMC curve, mAP, and excluded-query count.

    AP per query = mean over relevant items of precision at that item's rank.
    Partial sums follow ascending-rank order so results are bit-identical to
    any implementation using the same order of IEEE operations.
    """
    n_q = len(sim)
    n_g = len(gallery_labels)
    k_max = min(k_max, n_g)
    first_hits = [0] * k_max
    ap_sum = 0.0
    n_valid = 0
    n_excluded = 0
    for qi in range(n_q):
        order = rank_gallery(sim[qi], gallery_ids)
        rel = [int(gallery_labels[j]) == int(query_labels[qi]) for j in order]
        hits = [pos for pos, r in enumerate(rel) if r]
        if not hits:
            n_excluded += 1
            continue
        n_valid += 1
        if hits[0] < k_max:
            first_hits[hits[0]] += 1
        ap = 0.0
        seen = 0
        pos = 0
        for h in hits:
            while pos <= h:
                seen += rel[pos]
                pos += 1
            ap += seen / (h + 1)
        ap_sum += ap / len(hits)
    if n_valid == 0:
        raise ValueError("no query had a gallery match")
    cmc = []
    acc = 0
    for k in range(k_max):
        acc += first_hits[k]
        cmc.append(acc / n_valid)
    return cmc, ap_sum / n_valid, n_excluded


# ------------------------------------------------------------ batch sampler

def sample_batch_oracle(records, n_ids: int, k: int, rng) -> dict:
    """The identity-balanced PK batch, built one row at a time.

    `records` are (sample_id, identity, modality, view, x_raw, l_raw) tuples
    in any order; `rng` is the sampler's numpy Generator. Draws as the
    sampler does: n_ids identities from the sorted identity list, then per
    identity k rows of its V pool and k of its R pool, each pool in
    sample_id order. Returns the batch's fields by name; raises LookupError
    where the sampler raises ProtocolError.
    """
    import numpy as np

    identities = sorted({rec[1] for rec in records})
    pools: dict = {}
    for rec in sorted(records, key=lambda rec: rec[0]):
        pools.setdefault((rec[1], rec[2]), []).append(rec)
    if len(identities) < n_ids:
        raise LookupError(f"{len(identities)} identities, batch wants {n_ids}")
    chosen = [int(y) for y in rng.choice(identities, size=n_ids, replace=False)]
    out: dict = {name: [] for name in ("x_v", "x_r", "l_v", "l_r", "labels",
                                       "identities", "sample_ids_v", "sample_ids_r")}
    for y in chosen:
        pool_v = pools.get((y, "V"), [])
        pool_r = pools.get((y, "R"), [])
        if len(pool_v) < k or len(pool_r) < k:
            raise LookupError(f"identity {y} has too few rows")
        pick_v = rng.choice(len(pool_v), size=k, replace=False)
        pick_r = rng.choice(len(pool_r), size=k, replace=False)
        for j in range(k):
            sv = pool_v[int(pick_v[j])]
            sr = pool_r[int(pick_r[j])]
            out["x_v"].append(sv[4])
            out["l_v"].append(sv[5])
            out["x_r"].append(sr[4])
            out["l_r"].append(sr[5])
            out["labels"].append(identities.index(y))
            out["identities"].append(y)
            out["sample_ids_v"].append(sv[0])
            out["sample_ids_r"].append(sr[0])
    return {name: np.asarray(values) for name, values in out.items()}
