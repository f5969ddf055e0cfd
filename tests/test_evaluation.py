import dataclasses
import math

import numpy as np
import pytest

from cqarank.evaluation import (
    average_precision,
    build_rows,
    evaluate,
    evaluate_scores,
    rank_rows,
    reciprocal_rank,
    score_triples,
    task_group_key,
    tune_alpha,
    weighted_combine,
    write_predictions,
)
import cqarank.evaluation as evaluation
from cqarank.model import CqaModel
from cqarank.nn_core import NumericError
from cqarank.synthetic import conjunction_corpus, gradcheck_corpus, overfit_corpus
from cqarank.text_pipeline import vocabulary_for


def brute_force_ap(relevances):
    """Definition-level AP: mean of precision@k over the relevant positions."""
    precisions = []
    for k in range(1, len(relevances) + 1):
        if relevances[k - 1]:
            precisions.append(sum(relevances[:k]) / k)
    return sum(precisions) / sum(relevances)


def brute_force_rr(relevances):
    return 1.0 / (list(relevances).index(1) + 1)


def test_average_precision_frozen_values():
    assert average_precision([1, 0, 1]) == pytest.approx(5 / 6, rel=1e-12)
    assert average_precision([0, 1]) == 0.5
    assert average_precision([1, 1, 1]) == 1.0
    assert average_precision([0, 0, 1]) == pytest.approx(1 / 3, rel=1e-12)


def test_ap_and_rr_match_brute_force_on_random_rankings():
    rng = np.random.default_rng(6)
    for _ in range(300):
        n = int(rng.integers(1, 15))
        rel = [int(rng.random() < 0.4) for _ in range(n)]
        if sum(rel) == 0:
            rel[int(rng.integers(n))] = 1
        assert average_precision(rel) == brute_force_ap(rel)
        assert reciprocal_rank(rel) == brute_force_rr(rel)


def test_ap_and_rr_reject_rankings_without_positives():
    with pytest.raises(ValueError):
        average_precision([0, 0, 0])
    with pytest.raises(ValueError):
        reciprocal_rank([0])


def test_evaluate_scores_grouping_and_skipping():
    rows = [
        # query q1: positives ranked 1st and 3rd -> AP = (1 + 2/3)/2, RR = 1
        ("q1", "d1", 0.9, 1, 1),
        ("q1", "d2", 0.8, 2, 0),
        ("q1", "d3", 0.7, 3, 1),
        # query q2: positive ranked 2nd -> AP = 0.5, RR = 0.5
        ("q2", "d4", 0.9, 1, 0),
        ("q2", "d5", 0.5, 2, 1),
        # query q3: no positives -> skipped entirely
        ("q3", "d6", 0.9, 1, 0),
    ]
    result = evaluate_scores(rows)
    assert result.query_count == 2
    assert result.skipped == 1
    assert result.per_query_ap == pytest.approx(((1 + 2 / 3) / 2, 0.5))
    assert result.map == pytest.approx(100.0 * (((1 + 2 / 3) / 2) + 0.5) / 2, rel=1e-12)
    assert result.mrr == pytest.approx(100.0 * (1.0 + 0.5) / 2, rel=1e-12)


def test_map_is_percentage_of_mean_ap():
    # two queries with per-query APs 1.0 and 0.5 average to a MAP of 75.0
    rows = [
        ("q1", "d1", 0.9, 1, 1),
        ("q1", "d2", 0.8, 2, 0),
        ("q2", "d3", 0.9, 1, 0),
        ("q2", "d4", 0.5, 2, 1),
    ]
    result = evaluate_scores(rows)
    assert result.per_query_ap == (1.0, 0.5)
    assert result.map == 75.0
    assert result.map == pytest.approx(100.0 * sum(result.per_query_ap) / result.query_count)


def test_evaluate_scores_requires_some_positive_group():
    with pytest.raises(ValueError):
        evaluate_scores([("q", "d", 0.5, 1, 0)])


def test_tie_break_by_search_rank_then_id():
    rows = [
        ("q", "b", 0.5, 2, 0),
        ("q", "a", 0.5, 3, 1),
        ("q", "c", 0.5, 2, 1),
    ]
    ranked = rank_rows(rows)["q"]
    # equal scores: rank 2 before rank 3, then id "b" before "c"
    assert [r[1] for r in ranked] == ["b", "c", "a"]


def test_map_mrr_invariant_under_monotone_transforms():
    rng = np.random.default_rng(7)
    rows = []
    for q in range(12):
        for d in range(8):
            rows.append((f"q{q}", f"d{d}", float(rng.random()), d + 1, int(rng.random() < 0.3)))
    base = evaluate_scores(rows)
    for transform in (lambda s: 3.0 * s + 1.0, math.exp, lambda s: s**3 + 0.5 * s):
        mapped = [(q, d, transform(s), g, r) for q, d, s, g, r in rows]
        got = evaluate_scores(mapped)
        assert got.map == base.map
        assert got.mrr == base.mrr


def test_task_group_keys():
    t = gradcheck_corpus()[0]
    assert task_group_key(t, "A") == t.q_rel_key
    assert task_group_key(t, "B") == t.group
    assert task_group_key(t, "C") == t.group
    with pytest.raises(ValueError):
        task_group_key(t, "Z")


def test_build_rows_validates_lengths():
    data = gradcheck_corpus()
    with pytest.raises(ValueError):
        build_rows(data, [0.5], "A")


def test_evaluate_runs_model_over_corpus(monkeypatch):
    data = overfit_corpus()
    vocab = vocabulary_for(data)
    model = CqaModel(vocab, m=4, d_w=4, d_feat=2, seed=0)
    results = {t: evaluate(model, data, t) for t in model.tasks}
    assert set(results) == {"A", "B", "C"}
    for r in results.values():
        assert 0.0 <= r.map <= 100.0
        assert 0.0 <= r.mrr <= 100.0
        assert len(r.per_query_ap) == r.query_count
        assert r.map == pytest.approx(100.0 * sum(r.per_query_ap) / r.query_count)
    # evaluate is one scoring pass turned into the task's rows
    scores = score_triples(model, data)
    for t, r in results.items():
        assert r == evaluate_scores(build_rows(data, scores[t], t))
    # an unknown or unscored task and an empty corpus are refused before scoring
    monkeypatch.setattr(evaluation, "score_triples", lambda *a: pytest.fail("scored"))
    with pytest.raises(ValueError, match="does not score task 'Z'"):
        evaluate(model, data, "Z")
    with pytest.raises(ValueError, match="does not score task 'A'"):
        evaluate(CqaModel(vocab, task="C", m=4, d_w=4, d_feat=2), data, "A")
    with pytest.raises(ValueError, match="no triples"):
        evaluate(model, [], "A")


def test_score_triples_refuses_non_finite_scores():
    # finite weights that overflow: the forward pass gives nan on every task
    data = conjunction_corpus(4, seed=0)
    model = CqaModel(vocabulary_for(data), m=4, d_w=3, d_feat=2)
    rng = np.random.default_rng(0)
    for p in model.parameters():
        p.data[...] = np.where(rng.random(p.data.shape) < 0.5, -1e30, 1e30)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match=f"^non-finite score nan for task A on triple {data[0].id!r}$"):
            score_triples(model, data)


def test_weighted_combine():
    assert weighted_combine(0.8, 4, 0.75) == pytest.approx(0.75 * 0.8 + 0.25 * 0.25)
    assert weighted_combine(0.3, 2, 0.0) == 0.5  # pure search-rank prior
    assert weighted_combine(0.3, 2, 1.0) == 0.3  # pure model score
    with pytest.raises(ValueError):
        weighted_combine(0.5, 1, 1.5)


def test_tune_alpha_prefers_smallest_on_ties():
    # model score identical to the reciprocal rank: every alpha produces the
    # same ordering, so the grid search must return alpha = 0
    data = overfit_corpus()
    scores = [1.0 / t.google_rank for t in data]
    rows = build_rows(data, scores, "C")
    alpha, best = tune_alpha(rows)
    assert alpha == 0.0
    assert best == pytest.approx(evaluate_scores(rows).map)


def test_tune_alpha_finds_the_better_signal():
    # perfect model scores against an adversarial search prior (relevant rows
    # get the worst ranks): the grid must lean on the model side and win
    from cqarank.evaluation import task_relevance

    data = [dataclasses.replace(t, google_rank=100 - t.google_rank) for t in overfit_corpus()]
    scores = [0.9 if task_relevance(t, "C") else 0.1 for t in data]
    alpha, best = tune_alpha(build_rows(data, scores, "C"))
    assert best == 100.0
    assert alpha > 0.0
    assert round(alpha * 100) == pytest.approx(alpha * 100)
    prior_only = evaluate_scores(build_rows(data, [0.0] * len(data), "C")).map
    assert best > prior_only


def test_write_predictions(tmp_path):
    data = gradcheck_corpus()
    scores = [0.9, 0.4, 0.7, 0.2, 0.5]
    path = tmp_path / "preds.tsv"
    write_predictions(str(path), build_rows(data, scores, "C"))
    lines = path.read_text().splitlines()
    assert lines[0] == "group_key\tdoc_id\tfinal_rank\tscore\ttrue_label"
    assert len(lines) == 1 + len(data)
    first = lines[1].split("\t")
    assert first[2] == "1"  # best-ranked row of the first group
    ranks = [int(l.split("\t")[2]) for l in lines[1:]]
    assert ranks[0] == 1
