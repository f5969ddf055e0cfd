"""Naive reference implementations (loops only, no vectorization): of the
network layers, the oracles the layer tests compare ``nn_core`` against, and
of the ranking, the per-row oracles the evaluation tests compare the
columnar ``RankTable`` path against.  The ranking oracles take rows as
``(group_key, doc_id, score, google_rank, relevance)`` tuples."""

import numpy as np

from cqarank.evaluation import EvalResult, average_precision, reciprocal_rank


def naive_conv1d_wide(x, filters, bias):
    m, d, w = filters.shape
    n = x.shape[1]
    out_len = n + w - 1
    padded = np.zeros((d, n + 2 * (w - 1)), dtype=x.dtype)
    padded[:, w - 1 : w - 1 + n] = x
    out = np.zeros((m, out_len), dtype=x.dtype)
    for f in range(m):
        for t in range(out_len):
            s = 0.0
            for r in range(d):
                for k in range(w):
                    s += filters[f, r, k] * padded[r, t + k]
            out[f, t] = s + bias[f]
    return out


def naive_dense(x, weight, bias, act):
    out = np.zeros(weight.shape[0], dtype=x.dtype)
    for i in range(weight.shape[0]):
        s = 0.0
        for j in range(weight.shape[1]):
            s += weight[i, j] * x[j]
        out[i] = s + bias[i]
    if act == "tanh":
        return np.tanh(out)
    if act == "sigmoid":
        return 1.0 / (1.0 + np.exp(-out))
    return out


def naive_kmax(x):
    out = np.zeros(x.shape[0], dtype=x.dtype)
    for i in range(x.shape[0]):
        best = x[i, 0]
        for j in range(1, x.shape[1]):
            if x[i, j] > best:
                best = x[i, j]
        out[i] = best
    return out


def naive_rank_rows(rows):
    """Rows grouped by query key, each group sorted by descending score, then
    search rank, then id (Python's stable sort keeps equal ids in order)."""
    groups = {}
    for row in rows:
        groups.setdefault(row[0], []).append(row)
    for key in groups:
        groups[key].sort(key=lambda r: (-r[2], r[3], r[1]))
    return groups


def naive_evaluate_scores(rows):
    groups = naive_rank_rows(rows)
    aps = []
    rr_sum = 0.0
    skipped = 0
    for key in sorted(groups):
        ranked = [r[4] for r in groups[key]]
        if sum(ranked) == 0:
            skipped += 1
            continue
        aps.append(average_precision(ranked))
        rr_sum += reciprocal_rank(ranked)
    if not aps:
        raise ValueError("evaluate_scores: every group lacks relevant candidates")
    scored = len(aps)
    return EvalResult(
        map=100.0 * sum(aps) / scored,
        mrr=100.0 * rr_sum / scored,
        per_query_ap=tuple(aps),
        query_count=scored,
        skipped=skipped,
    )


def blend_rows(rows, alpha):
    """The rows with each model score ``s`` interpolated with the reciprocal
    search rank, ``alpha * s + (1 - alpha) * (1 / rank)``, one row at a time."""
    return [(key, doc, alpha * s + (1.0 - alpha) * (1.0 / rank), rank, rel) for key, doc, s, rank, rel in rows]


def naive_tune_alpha(rows):
    """The alpha search one weight at a time: MAP of the rows blended with
    each weight 0.00..1.00, the first best kept."""
    best_alpha = 0.0
    best_map = -1.0
    for step in range(101):
        alpha = step / 100.0
        result = naive_evaluate_scores(blend_rows(rows, alpha))
        if result.map > best_map:
            best_alpha, best_map = alpha, result.map
    return best_alpha, best_map


def naive_predictions_tsv(rows):
    """The text of the predictions TSV."""
    groups = naive_rank_rows(rows)
    lines = ["group_key\tdoc_id\tfinal_rank\tscore\ttrue_label\n"]
    for key in sorted(groups):
        for rank, row in enumerate(groups[key], start=1):
            lines.append(f"{row[0]}\t{row[1]}\t{rank}\t{row[2]:.6f}\t{row[4]}\n")
    return "".join(lines)
