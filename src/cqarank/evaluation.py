"""Reranking evaluation: mean average precision and mean reciprocal rank over
per-query candidate lists, plus the score/search-rank interpolation used at
prediction time.

Candidates are grouped into queries and sorted by model score, descending.
Equal scores go by original search rank, then by id, and candidates with
equal ids keep their input order.  Queries without any relevant candidate are
skipped.  MAP and MRR are reported as percentages in [0, 100]; the per-query
average precisions they summarize are kept as fractions in [0, 1].

:class:`RankTable` is the one format of ranking rows: :func:`build_rows`
returns a task's rows as one, and every consumer (the metrics, the blend, the
alpha search, the TSV, the dev pass) reads its columns and orders them with
one stable ``np.lexsort``.  A score that is not finite is refused when the
table is built.  The blend is written once, over an array of weights: the
alpha search blends and ranks all 101 weights in one pass, and each MAP it
compares is bit for bit the MAP of the table blended with that one weight.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .dataset import Triple, atomic_write, task_relevance
from .nn_core import NumericError

GroupedRow = tuple[str, str, float, int, int]  # group_key, doc_id, score, google_rank, relevance


@dataclass(frozen=True)
class EvalResult:
    """MAP and MRR as percentages, with the per-query APs behind the mean."""

    map: float
    mrr: float
    per_query_ap: tuple[float, ...]
    query_count: int
    skipped: int


def _codes(values: Sequence) -> tuple[tuple, np.ndarray]:
    """The sorted distinct values, and each value's index among them in the
    smallest unsigned dtype that holds it (numpy radix-sorts 8- and 16-bit
    keys).  Python's ``sorted`` compares strings exactly; numpy's str dtype
    would drop trailing NULs."""
    distinct = sorted(set(values))
    index = {v: i for i, v in enumerate(distinct)}
    dtype = np.min_scalar_type(max(len(distinct) - 1, 0))
    return tuple(distinct), np.fromiter(map(index.__getitem__, values), dtype=dtype, count=len(values))


@dataclass(frozen=True)
class RankTable:
    """One task's ranking rows as columns.  Query keys, doc ids and search
    ranks are stored as their index among the sorted distinct values, so
    comparing the codes compares the values."""

    keys: tuple[str, ...]  # distinct query keys, sorted
    ids: tuple[str, ...]  # distinct doc ids, sorted
    ranks: tuple[int, ...]  # distinct search ranks, sorted
    group: np.ndarray  # per row: index into keys
    doc: np.ndarray  # per row: index into ids
    rank: np.ndarray  # per row: index into ranks
    score: np.ndarray  # per row: float64 score
    rel: np.ndarray  # per row: bool relevance

    @classmethod
    def of(cls, rows: Sequence[GroupedRow]) -> RankTable:
        keys, ids, scores, ranks, rels = tuple(zip(*rows)) or ((),) * 5
        if not set(rels) <= {0, 1}:
            raise ValueError(f"relevance must be 0 or 1, got {next(r for r in rels if r not in (0, 1))!r}")
        (keys, group), (ids, doc), (ranks, rank) = _codes(keys), _codes(ids), _codes(ranks)
        table = cls(keys, ids, ranks, group, doc, rank, np.zeros(len(doc)), np.array(rels, dtype=bool))
        return table.with_scores(scores)

    def with_scores(self, scores: Sequence[float]) -> RankTable:
        """The table with each row's score replaced; a score that is not
        finite raises ``ValueError`` naming the first such row's doc id."""
        score = np.array(scores, dtype=np.float64)
        if score.shape != self.doc.shape:
            raise ValueError(f"{len(score)} scores for {len(self.doc)} rows")
        bad = np.flatnonzero(~np.isfinite(score))
        if bad.size:
            k = bad[0]
            raise ValueError(
                f"score {score[k]} of doc {self.ids[self.doc[k]]!r} in query {self.keys[self.group[k]]!r} is not finite"
            )
        return dataclasses.replace(self, score=score)

    def order(self, scores: np.ndarray) -> np.ndarray:
        """The ranked row indices for each row of ``scores`` (shape
        ``(k, rows)``): by query key, then score descending, search rank and
        doc id; the sort is stable, so equal ids keep their input order."""
        doc, rank, group = (np.broadcast_to(column, scores.shape) for column in (self.doc, self.rank, self.group))
        return np.lexsort((doc, rank, -scores, group), axis=-1)

    def ranked(self) -> np.ndarray:
        """The row indices ranked by the table's own scores."""
        return self.order(self.score[None])[0]

    def places(self) -> tuple[np.ndarray, np.ndarray]:
        """For each position of any ranking: its query's index in ``keys``
        and its 1-based place within that query."""
        counts = np.bincount(self.group, minlength=len(self.keys))
        query = np.repeat(np.arange(len(self.keys)), counts)
        return query, np.arange(len(query)) - np.repeat(np.cumsum(counts) - counts, counts) + 1

    def precisions(self, ranked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-query average precision and 1-based place of the first relevant
        row of each ranking, given as the rows' relevance in ranked order
        (shape ``(k, rows)``); both results have shape ``(k, P)`` over the P
        queries with a relevant row, in sorted-key order."""
        positives = np.bincount(self.group, weights=self.rel, minlength=len(self.keys))
        judged = positives > 0
        count = np.count_nonzero(judged)
        if not count:
            raise ValueError("evaluate_scores: every group lacks relevant candidates")
        query, place = self.places()
        # one block per (ranking, judged query); its hits are contiguous, in rank order
        block, at = np.nonzero(ranked)
        block *= count
        block += (np.cumsum(judged) - 1)[query[at]]
        first = np.flatnonzero(np.diff(block, prepend=-1))
        hits = np.arange(1, len(block) + 1)
        hits -= np.repeat(first, np.diff(first, append=len(block)))
        # np.add.at adds in index order, so each query's precisions are summed
        # first to last, in rank order
        total = np.zeros((len(ranked), count))
        np.add.at(total.reshape(-1), block, hits / place[at])
        return total / positives[judged], place[at[first]].reshape(total.shape)

    def rows(self, at: np.ndarray) -> list[GroupedRow]:
        """The rows at indices ``at`` as tuples of Python values."""
        columns = (c[at].tolist() for c in (self.group, self.doc, self.score, self.rank, self.rel.view(np.uint8)))
        return [(self.keys[g], self.ids[d], s, self.ranks[r], y) for g, d, s, r, y in zip(*columns)]

    def blend(self, alphas: Sequence[float]) -> np.ndarray:
        """Each row's score ``s`` interpolated with its reciprocal search
        rank, ``alpha * s + (1 - alpha) * (1 / rank)``, one row per weight
        (shape ``(len(alphas), rows)``)."""
        alphas = np.asarray(alphas, dtype=np.float64)
        for alpha in alphas.tolist():
            check_alpha(alpha)
        inverse = np.array([1.0 / rank for rank in self.ranks])[self.rank]
        blended = np.multiply.outer(alphas, self.score)
        blended += np.multiply.outer(1.0 - alphas, inverse)
        return blended


def check_alpha(alpha: float) -> None:
    """Refuse a blend weight outside [0, 1], nan included."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")


def rank_rows(table: RankTable) -> dict[str, list[GroupedRow]]:
    """The table's rows grouped by query key, in first-row order, each group
    ranked by descending score, breaking ties by search rank then id."""
    ranked: dict[str, list[GroupedRow]] = {table.keys[g]: [] for g in table.group.tolist()}
    for row in table.rows(table.ranked()):
        ranked[row[0]].append(row)
    return ranked


def evaluate_scores(table: RankTable) -> EvalResult:
    """MAP and MRR (percentages) of the table's rows ranked by their scores;
    groups with no relevant candidate are skipped (not averaged as zero)."""
    aps, firsts = table.precisions(table.rel[table.ranked()][None])
    aps = aps[0].tolist()
    rr_sum = 0.0
    for first in firsts[0].tolist():
        rr_sum += 1.0 / first
    scored = len(aps)
    return EvalResult(
        map=100.0 * sum(aps) / scored,
        mrr=100.0 * rr_sum / scored,
        per_query_ap=tuple(aps),
        query_count=scored,
        skipped=len(table.keys) - scored,
    )


def task_group_key(triple: Triple, task: str) -> str:
    """Query identity for ranking: comments rank within their thread (task A),
    threads rank within the new question's result list (tasks B and C)."""
    if task == "A":
        return triple.q_rel_key
    if task in ("B", "C"):
        return triple.group
    raise ValueError(f"unknown task {task!r}")


# Triples scored per forward pass.  A call of n triples runs as ceil(n /
# SCORE_CHUNK) passes whose sizes differ by at most one, so a candidate list
# (at most 100 triples in SemEval-2016 Task 3) is one pass: its new question
# is encoded once and its repeats share the word part of the convolution (see
# ``model.encode_texts``).  A pass's question and comment encoder runs are in
# flight at once, on the caller and on nn_core's worker, and at paper sizes their
# tracemalloc peaks are 5.3 and 5.2 MB per 64-triple pass, 7.5 and 8.2 MB per
# 100, and 9.7 and 10.5 MB per 128.  On a 2-core x86_64 box with OpenBLAS on
# one thread, passes of up to 128 raised score_bulk's peak RSS by 12%, and
# equal passes of at most 128 by about 8%, near the benchmark's 10% bound;
# equal passes of at most 64 split lists of 65-100 candidates and slowed
# rank_online by about 8%.  The threads overlap only where numpy releases the
# GIL: the GEMMs do, while pooling's ``np.maximum.reduceat`` and the
# ``np.fromiter`` index builds hold it.
SCORE_CHUNK = 100


def score_features(model, features: Iterable, tasks: Optional[Sequence[str]] = None) -> dict[str, list[float]]:
    """Forward featurized triples through the model in inference mode;
    returns one score list per task of ``tasks`` (None: every task the model
    has), in the model's task order and input order.  Only the heads of those
    tasks run, and the scores are bit for bit those of each pass's encoder
    runs and layers above run in turn on one thread.

    The n triples run as ceil(n / ``SCORE_CHUNK``) passes in input order,
    whose sizes differ by at most one.  On a network with two encoder runs,
    ``nn_core``'s worker thread runs each pass's comment encoder while the
    caller encodes the questions, then the caller runs the layers above; a
    pair-B network has one run and uses no worker.  The worker's part runs
    under the caller's numpy error state, an exception in it is raised in
    the caller, and none of it is left queued or running when the call
    returns or raises (see ``nn_core.split``)."""
    features = list(features)
    n = len(features)
    passes = math.ceil(n / SCORE_CHUNK)
    scores: dict[str, list[float]] = {t: [] for t in model.tasks if tasks is None or t in tasks}
    for k in range(passes):
        chunk = features[n * k // passes : n * (k + 1) // passes]
        for task, values in model.predict(chunk, training=False, tasks=tasks).items():
            scores[task].extend(values.data.tolist())
    return scores


def score_triples(model, triples: Sequence[Triple], tasks: Optional[Sequence[str]] = None) -> dict[str, list[float]]:
    """:func:`score_features` over the triples, featurized in one call; a
    score that is not finite raises :class:`NumericError`."""
    scores = score_features(model, model.featurize_all(triples), tasks)
    for task, values in scores.items():
        if not all(map(math.isfinite, values)):
            k = next(k for k, v in enumerate(values) if not math.isfinite(v))
            raise NumericError(f"non-finite score {values[k]} for task {task} on triple {triples[k].id!r}")
    return scores


def build_rows(triples: Sequence[Triple], scores: Sequence[float], task: str) -> RankTable:
    """The task's ranking rows of the scored triples, in input order."""
    if len(scores) != len(triples):
        raise ValueError("build_rows: scores and triples differ in length")
    return RankTable.of(
        [(task_group_key(t, task), t.id, s, t.google_rank, task_relevance(t, task)) for t, s in zip(triples, scores)]
    )


def evaluate(model, triples: Sequence[Triple], task: str) -> EvalResult:
    """MAP/MRR of the model's reranking of the dev/test triples on one task."""
    if not triples:
        raise ValueError("evaluate: no triples to evaluate")
    if task not in model.tasks:
        raise ValueError(f"model does not score task {task!r}")
    return evaluate_scores(build_rows(triples, score_triples(model, triples, (task,))[task], task))


# The blend weights the alpha search tries, as step / 100.0 for step 0..100.
ALPHAS = np.arange(101) / 100.0


def tune_alpha(table: RankTable) -> tuple[float, float]:
    """Grid-search alpha over 0.00..1.00 in steps of 0.01, maximizing MAP of
    the blended scores; ties go to the smallest alpha.  All weights are
    blended and ranked in one pass, with the MAPs of weight-by-weight
    evaluation bit for bit."""
    blended = table.blend(ALPHAS)
    ranked = table.rel[table.order(blended)]
    del blended  # frees (101, rows) floats before the per-hit arrays are built
    aps, _ = table.precisions(ranked)
    best_alpha = 0.0
    best_map = -1.0
    for step, row in enumerate(aps.tolist()):
        score = 100.0 * sum(row) / len(row)
        if score > best_map:
            best_alpha, best_map = step / 100.0, score
    return best_alpha, best_map


def write_predictions(path: str, table: RankTable) -> None:
    """Write one TSV row per candidate: query key, candidate id, final rank
    within the query, score, and gold 0/1 relevance.  Atomic."""
    _, places = table.places()
    with atomic_write(path) as fh:
        fh.write("group_key\tdoc_id\tfinal_rank\tscore\ttrue_label\n")
        for (key, doc, score, _, rel), place in zip(table.rows(table.ranked()), places.tolist()):
            fh.write(f"{key}\t{doc}\t{place}\t{score:.6f}\t{rel}\n")
