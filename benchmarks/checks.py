"""Correctness checks on the outputs of each workload.

Every check raises ``CheckFailed`` with a one-line reason; ``selftest.py``
feeds each one a deliberately corrupted output to show that it fires.
"""

from __future__ import annotations

import csv
import math
import re
from collections import defaultdict
from typing import Sequence

from cqarank.dataset import Triple
from cqarank.evaluation import task_group_key, task_relevance

ONLINE_TOLERANCE = 1e-5

_TASK_LINE = re.compile(
    r"^task (?P<task>[ABC]): MAP=(?P<map>\S+) MRR=(?P<mrr>\S+) "
    r"queries=(?P<queries>\d+) skipped=(?P<skipped>\d+)$"
)
_ALPHA_LINE = re.compile(r"^task (?P<task>[ABC]): best alpha=(?P<alpha>\S+) MAP=(?P<map>\S+)$")


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- train_mtl ---------------------------------------------------------------


def read_history(path: str) -> list[dict[str, str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_history(rows: Sequence[dict[str, str]], epochs: int) -> float:
    """One row per epoch and a finite final dev loss; returns that loss."""
    _require(len(rows) == epochs, f"history.csv has {len(rows)} rows, expected {epochs}")
    _require(
        [int(r["epoch"]) for r in rows] == list(range(1, epochs + 1)),
        "history.csv epochs are not 1..n",
    )
    dev_loss = float(rows[-1]["loss_dev"])
    _require(math.isfinite(dev_loss), f"final dev loss is {dev_loss}")
    return dev_loss


def check_reloaded(model, expected: dict, probe) -> None:
    """The checkpoint reloads with the trained sizes and scores a triple."""
    for key, value in expected.items():
        _require(getattr(model, key) == value, f"reloaded {key}={getattr(model, key)}, expected {value}")
    preds = model.predict(model.featurize(probe), training=False)
    for task, tensor in preds.items():
        p = float(tensor.data[0])
        _require(0.0 <= p <= 1.0, f"reloaded model scores task {task} as {p}")


def check_repeatable(values: Sequence[float], what: str) -> None:
    """Runs of the same command on the same inputs give the same value."""
    _require(len(set(values)) == 1, f"{what} differs between identical runs: {sorted(set(values))}")


# -- score_bulk --------------------------------------------------------------


def read_predictions(path: str) -> list[dict[str, str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh, delimiter="\t"))


def check_predictions(rows: Sequence[dict[str, str]], triples: Sequence[Triple], task: str) -> None:
    """One row per triple, ranks 1..n in each group, ranked by score."""
    ids = [r["doc_id"] for r in rows]
    _require(len(ids) == len(triples), f"{len(ids)} prediction rows for {len(triples)} triples")
    _require(set(ids) == {t.id for t in triples}, "prediction ids differ from the corpus ids")
    expected_group = {t.id: task_group_key(t, task) for t in triples}
    groups: dict[str, list[dict[str, str]]] = defaultdict(list)
    for r in rows:
        _require(r["group_key"] == expected_group[r["doc_id"]], f"{r['doc_id']} in wrong group")
        groups[r["group_key"]].append(r)
    for key, members in groups.items():
        ranks = [int(r["final_rank"]) for r in members]
        _require(sorted(ranks) == list(range(1, len(ranks) + 1)), f"group {key}: ranks are not 1..n")
        by_rank = sorted(members, key=lambda r: int(r["final_rank"]))
        scores = [float(r["score"]) for r in by_rank]
        _require(
            all(a >= b for a, b in zip(scores, scores[1:])),
            f"group {key}: scores do not fall with rank",
        )


def positive_groups(triples: Sequence[Triple], task: str) -> tuple[int, int]:
    """(groups with a positive candidate, all groups) for the task."""
    positive: dict[str, bool] = {}
    for t in triples:
        key = task_group_key(t, task)
        positive[key] = positive.get(key, False) or bool(task_relevance(t, task))
    return sum(positive.values()), len(positive)


def check_evaluate_output(stdout: str, triples: Sequence[Triple], tasks: str) -> dict[str, dict]:
    """MAP/MRR in [0, 100], ``queries=`` equal to the positive groups counted
    from the labels, and a tuned alpha in [0, 1] for every task."""
    lines = stdout.splitlines()
    found: dict[str, dict] = {}
    for line in lines:
        m = _TASK_LINE.match(line)
        if m:
            found[m["task"]] = {k: float(m[k]) for k in ("map", "mrr", "queries", "skipped")}
        m = _ALPHA_LINE.match(line)
        if m and m["task"] in found:
            found[m["task"]]["alpha"] = float(m["alpha"])
    _require(sorted(found) == sorted(tasks), f"evaluate reported tasks {sorted(found)}, expected {list(tasks)}")
    for task, r in found.items():
        for key in ("map", "mrr"):
            _require(0.0 <= r[key] <= 100.0, f"task {task}: {key.upper()}={r[key]} outside [0, 100]")
        queries, groups = positive_groups(triples, task)
        _require(r["queries"] == queries, f"task {task}: queries={r['queries']:.0f}, labels give {queries}")
        _require(r["skipped"] == groups - queries, f"task {task}: skipped={r['skipped']:.0f}, labels give {groups - queries}")
        _require("alpha" in r and 0.0 <= r["alpha"] <= 1.0, f"task {task}: no tuned alpha in [0, 1]")
    return found


def check_same_scores(a: Sequence[dict[str, str]], b: Sequence[dict[str, str]]) -> None:
    """Two prediction files give every candidate the same score."""
    scores_a = {r["doc_id"]: r["score"] for r in a}
    scores_b = {r["doc_id"]: r["score"] for r in b}
    _require(scores_a.keys() == scores_b.keys(), "prediction files cover different candidates")
    diff = [k for k in scores_a if scores_a[k] != scores_b[k]]
    _require(not diff, f"{len(diff)} candidates scored differently, e.g. {diff[:1]}")


# -- rank_online -------------------------------------------------------------


def check_online(
    responses: Sequence[tuple[list[str], list[float], list[str]]], bulk: dict[str, float]
) -> None:
    """Each request's scores match the bulk scores of the same triples within
    ``ONLINE_TOLERANCE``, and its ranking lists every candidate once, best
    score first.  A response is (candidate ids, their scores, ranked ids)."""
    for ids, scores, ranked in responses:
        for doc_id, score in zip(ids, scores):
            _require(
                abs(score - bulk[doc_id]) <= ONLINE_TOLERANCE,
                f"{doc_id}: online score {score} vs bulk {bulk[doc_id]}",
            )
        _require(sorted(ranked) == sorted(ids), "ranking does not list each candidate once")
        by_id = dict(zip(ids, scores))
        ordered = [by_id[i] for i in ranked]
        _require(all(x >= y for x, y in zip(ordered, ordered[1:])), "ranking is not best score first")
