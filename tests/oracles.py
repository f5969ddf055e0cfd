"""Reference implementations the tests compare the program against: naive
loops (no vectorization) for the network layers; the wide convolution as one
GEMM over whole stacked texts, for the one that shares word columns between
repeated texts; and per-row oracles for the columnar ``RankTable`` ranking.
The ranking oracles take rows as ``(group_key, doc_id, score, google_rank,
relevance)`` tuples.  ``linear_readout`` is the one-value loss the gradient
tests drive ``backward`` through.  ``predict_in_turn`` is ``CqaModel.predict``
with its encoder runs one after another on the calling thread, the reference
for the pass ``nn.split`` shares with the worker."""

import numpy as np

import cqarank.nn_core as nn
from cqarank.evaluation import EvalResult


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


def stacked_conv1d_wide(x, filters, bias, lengths):
    """The wide convolution of a packed d x n input whose texts each stack
    their word rows on top of their feature rows, run as one im2col GEMM over
    every text, repeated or not.  Returns the m x (n + len(lengths) * (w - 1))
    output and a function from its gradient to the gradients of ``x``,
    ``filters`` and ``bias``."""
    m, d, w = filters.shape
    n = x.shape[1]
    lengths = np.asarray(lengths)
    out_len = n + lengths.size * (w - 1)
    # text i starts after (i + 1) gaps of w - 1 zero columns
    cols = np.arange(n) + (w - 1) * (1 + np.repeat(np.arange(lengths.size), lengths))
    padded = np.zeros((out_len + w - 1, d), dtype=x.dtype)
    padded[cols] = x.T
    win_mat = np.lib.stride_tricks.sliding_window_view(padded.reshape(-1), w * d)[::d]
    filt_mat = filters.transpose(0, 2, 1).reshape(m, w * d)
    out = filt_mat @ win_mat.T + bias[:, None]

    def backward(grad):
        dwin = (filt_mat.T @ grad).reshape(w, d, out_len)
        dpadded = np.zeros((d, out_len + w - 1), dtype=grad.dtype)
        for k in range(w):
            dpadded[:, k : k + out_len] += dwin[k]
        return dpadded[:, cols], (grad @ win_mat).reshape(m, w, d).transpose(0, 2, 1), grad.sum(axis=1)

    return out, backward


def naive_dense(x, weight, bias, act):
    out = np.zeros(weight.shape[0], dtype=x.dtype)
    for i in range(weight.shape[0]):
        s = 0.0
        for j in range(weight.shape[1]):
            s += weight[i, j] * x[j]
        out[i] = s + bias[i]
    if act == "tanh":
        return np.tanh(out)
    return 1.0 / (1.0 + np.exp(-out))


def linear_readout(x, weights):
    """A one-value loss whose gradient with respect to ``x`` is ``weights``
    (shaped like ``x``): a tanh unit whose bias cancels the weighted sum, so
    its pre-activation is exactly 0, where tanh's slope is exactly 1."""
    flat = nn.reshape(x, (1, -1))
    weight = nn.Parameter("readout", np.asarray(weights, dtype=x.data.dtype).reshape(1, -1))
    return nn.dense(flat, weight, nn.Parameter("offset", -(flat.data @ weight.data.T)[0]), "tanh")


def predict_in_turn(model, features, training=False, rng=None, dropout_input=0.4, dropout_hidden=0.7, tasks=None):
    """``model.predict(features, ...)`` (same parameters and defaults) with no
    worker: each encoder run in turn on the caller, then the layers above."""
    encodings = [model.encode(features, run) for run in range(len(model.encoder_runs))]
    return model.score_encodings(features, encodings, tasks, training, rng, dropout_input, dropout_hidden)


def naive_kmax(x):
    out = np.zeros(x.shape[0], dtype=x.dtype)
    for i in range(x.shape[0]):
        best = x[i, 0]
        for j in range(1, x.shape[1]):
            if x[i, j] > best:
                best = x[i, j]
        out[i] = best
    return out


def average_precision(relevances):
    """AP of one ranked list of 0/1 relevance judgements."""
    total = sum(relevances)
    if total == 0:
        raise ValueError("average_precision: no relevant items in ranking")
    hits = 0
    acc = 0.0
    for i, rel in enumerate(relevances, start=1):
        if rel:
            hits += 1
            acc += hits / i
    return acc / total


def reciprocal_rank(relevances):
    """1/rank of the first relevant item in one ranked list."""
    for i, rel in enumerate(relevances, start=1):
        if rel:
            return 1.0 / i
    raise ValueError("reciprocal_rank: no relevant items in ranking")


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
