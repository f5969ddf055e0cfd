"""Reranking evaluation: mean average precision and mean reciprocal rank over
per-query candidate lists, plus the score/search-rank interpolation used at
prediction time.

Candidates are grouped into queries, sorted by model score (ties broken by
original search rank, then id), and queries without any relevant candidate are
skipped.  MAP and MRR are reported as percentages in [0, 100]; the per-query
average precisions they summarize are kept as fractions in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Sequence

from .dataset import Triple, atomic_write, task_relevance
from .nn_core import NumericError

GroupedRow = tuple[str, str, float, int, int]  # group_key, doc_id, score, google_rank, relevance


def average_precision(relevances: Sequence[int]) -> float:
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


def reciprocal_rank(relevances: Sequence[int]) -> float:
    """1/rank of the first relevant item in one ranked list."""
    for i, rel in enumerate(relevances, start=1):
        if rel:
            return 1.0 / i
    raise ValueError("reciprocal_rank: no relevant items in ranking")


@dataclass(frozen=True)
class EvalResult:
    """MAP and MRR as percentages, with the per-query APs behind the mean."""

    map: float
    mrr: float
    per_query_ap: tuple[float, ...]
    query_count: int
    skipped: int


def rank_rows(rows: Sequence[GroupedRow]) -> dict[str, list[GroupedRow]]:
    """Group rows by query key and sort each group by descending score,
    breaking ties by search rank then id."""
    groups: dict[str, list[GroupedRow]] = {}
    for row in rows:
        groups.setdefault(row[0], []).append(row)
    for key in groups:
        groups[key].sort(key=lambda r: (-r[2], r[3], r[1]))
    return groups


def evaluate_scores(rows: Sequence[GroupedRow]) -> EvalResult:
    """MAP and MRR (percentages) over grouped candidate rows; groups with no
    relevant candidate are skipped (not averaged as zero)."""
    groups = rank_rows(rows)
    aps: list[float] = []
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


def task_group_key(triple: Triple, task: str) -> str:
    """Query identity for ranking: comments rank within their thread (task A),
    threads rank within the new question's result list (tasks B and C)."""
    if task == "A":
        return triple.q_rel_key
    if task in ("B", "C"):
        return triple.group
    raise ValueError(f"unknown task {task!r}")


# Triples scored per forward pass.
SCORE_CHUNK = 32


def score_features(model, features: Iterable) -> dict[str, list[float]]:
    """Forward featurized triples through the model in inference mode, one
    pass per chunk of ``SCORE_CHUNK``; returns one score list per task the
    model produces, in input order."""
    scores: dict[str, list[float]] = {t: [] for t in model.tasks}
    pending = iter(features)
    while chunk := list(islice(pending, SCORE_CHUNK)):
        values = {t: p.data.tolist() for t, p in model.predict(chunk, training=False).items()}
        for task, chunk_scores in values.items():
            scores[task].extend(chunk_scores)
    return scores


def score_triples(model, triples: Sequence[Triple]) -> dict[str, list[float]]:
    """:func:`score_features` over the triples, featurized in one call; a
    score that is not finite raises :class:`NumericError`."""
    scores = score_features(model, model.featurize_all(triples))
    for task, values in scores.items():
        if not all(map(math.isfinite, values)):
            k = next(k for k, v in enumerate(values) if not math.isfinite(v))
            raise NumericError(f"non-finite score {values[k]} for task {task} on triple {triples[k].id!r}")
    return scores


def build_rows(
    triples: Sequence[Triple], scores: Sequence[float], task: str
) -> list[GroupedRow]:
    if len(scores) != len(triples):
        raise ValueError("build_rows: scores and triples differ in length")
    return [
        (task_group_key(t, task), t.id, s, t.google_rank, task_relevance(t, task))
        for t, s in zip(triples, scores)
    ]


def evaluate(model, triples: Sequence[Triple], task: str) -> EvalResult:
    """MAP/MRR of the model's reranking of the dev/test triples on one task."""
    if not triples:
        raise ValueError("evaluate: no triples to evaluate")
    if task not in model.tasks:
        raise ValueError(f"model does not score task {task!r}")
    return evaluate_scores(build_rows(triples, score_triples(model, triples)[task], task))


def blend_rows(rows: Sequence[GroupedRow], alpha: float) -> list[GroupedRow]:
    """The rows with each model score ``s`` interpolated with the reciprocal
    search-engine rank: ``alpha * s + (1 - alpha) / rank``, for ``alpha`` in
    [0, 1]."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return [(key, doc, alpha * s + (1.0 - alpha) * (1.0 / rank), rank, rel) for key, doc, s, rank, rel in rows]


def tune_alpha(rows: Sequence[GroupedRow]) -> tuple[float, float]:
    """Grid-search alpha over 0.00..1.00 in steps of 0.01, maximizing MAP of
    the blended rows; ties go to the smallest alpha."""
    best_alpha = 0.0
    best_map = -1.0
    for step in range(101):
        alpha = step / 100.0
        result = evaluate_scores(blend_rows(rows, alpha))
        if result.map > best_map:
            best_alpha, best_map = alpha, result.map
    return best_alpha, best_map


def write_predictions(path: str, rows: Sequence[GroupedRow]) -> None:
    """Write one TSV row per candidate: query key, candidate id, final rank
    within the query, score, and gold 0/1 relevance.  Atomic."""
    groups = rank_rows(rows)
    with atomic_write(path) as fh:
        fh.write("group_key\tdoc_id\tfinal_rank\tscore\ttrue_label\n")
        for key in sorted(groups):
            for rank, row in enumerate(groups[key], start=1):
                fh.write(f"{row[0]}\t{row[1]}\t{rank}\t{row[2]:.6f}\t{row[4]}\n")
