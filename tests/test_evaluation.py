import dataclasses
import math
import os
import re
import signal
import sys
import tempfile
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqarank.evaluation import (
    RankTable,
    build_rows,
    check_alpha,
    evaluate,
    evaluate_scores,
    rank_rows,
    score_triples,
    task_group_key,
    tune_alpha,
    write_predictions,
)
import cqarank.evaluation as evaluation
import cqarank.model as model_module
import cqarank.nn_core as nn
from cqarank.model import CqaModel
from cqarank.nn_core import NumericError
from cqarank.synthetic import conjunction_corpus, gradcheck_corpus, overfit_corpus
from cqarank.text_pipeline import vocabulary_for
from oracles import (
    average_precision,
    blend_rows,
    naive_evaluate_scores,
    naive_predictions_tsv,
    naive_rank_rows,
    naive_tune_alpha,
    predict_in_turn,
    reciprocal_rank,
)


def brute_force_ap(relevances):
    """Definition-level AP: mean of precision@k over the relevant positions."""
    precisions = []
    for k in range(1, len(relevances) + 1):
        if relevances[k - 1]:
            precisions.append(sum(relevances[:k]) / k)
    return sum(precisions) / sum(relevances)


def brute_force_rr(relevances):
    return 1.0 / (list(relevances).index(1) + 1)


def ranked_in_order(relevances):
    """evaluate_scores of one query whose descending scores rank its rows in
    the order of ``relevances``."""
    n = len(relevances)
    return evaluate_scores(RankTable.of([("q", f"d{k}", float(n - k), 1, r) for k, r in enumerate(relevances)]))


def test_average_precision_frozen_values():
    assert ranked_in_order([1, 0, 1]).per_query_ap[0] == pytest.approx(5 / 6, rel=1e-12)
    assert ranked_in_order([0, 1]).per_query_ap == (0.5,)
    assert ranked_in_order([1, 1, 1]).per_query_ap == (1.0,)
    assert ranked_in_order([0, 0, 1]).per_query_ap[0] == pytest.approx(1 / 3, rel=1e-12)


def test_ap_and_rr_match_brute_force_on_random_rankings():
    rng = np.random.default_rng(6)
    for _ in range(300):
        n = int(rng.integers(1, 15))
        rel = [int(rng.random() < 0.4) for _ in range(n)]
        if sum(rel) == 0:
            rel[int(rng.integers(n))] = 1
        result = ranked_in_order(rel)
        assert result.per_query_ap == (brute_force_ap(rel),)
        assert result.mrr == 100.0 * brute_force_rr(rel)
        # the per-row oracles the other ranking tests compare against
        assert average_precision(rel) == brute_force_ap(rel)
        assert reciprocal_rank(rel) == brute_force_rr(rel)


def test_ap_and_rr_reject_rankings_without_positives():
    for rel in ([0, 0, 0], [0]):
        with pytest.raises(ValueError, match="every group lacks relevant candidates"):
            ranked_in_order(rel)
        with pytest.raises(ValueError):
            average_precision(rel)
        with pytest.raises(ValueError):
            reciprocal_rank(rel)


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
    result = evaluate_scores(RankTable.of(rows))
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
    result = evaluate_scores(RankTable.of(rows))
    assert result.per_query_ap == (1.0, 0.5)
    assert result.map == 75.0
    assert result.map == pytest.approx(100.0 * sum(result.per_query_ap) / result.query_count)


def test_evaluate_scores_requires_some_positive_group():
    with pytest.raises(ValueError):
        evaluate_scores(RankTable.of([("q", "d", 0.5, 1, 0)]))


def test_tie_break_by_search_rank_then_id():
    rows = [
        ("q", "b", 0.5, 2, 0),
        ("q", "a", 0.5, 3, 1),
        ("q", "c", 0.5, 2, 1),
    ]
    ranked = rank_rows(RankTable.of(rows))["q"]
    # equal scores: rank 2 before rank 3, then id "b" before "c"
    assert [r[1] for r in ranked] == ["b", "c", "a"]


def test_map_mrr_invariant_under_monotone_transforms():
    rng = np.random.default_rng(7)
    rows = []
    for q in range(12):
        for d in range(8):
            rows.append((f"q{q}", f"d{d}", float(rng.random()), d + 1, int(rng.random() < 0.3)))
    base = evaluate_scores(RankTable.of(rows))
    for transform in (lambda s: 3.0 * s + 1.0, math.exp, lambda s: s**3 + 0.5 * s):
        mapped = [(q, d, transform(s), g, r) for q, d, s, g, r in rows]
        got = evaluate_scores(RankTable.of(mapped))
        assert got.map == base.map
        assert got.mrr == base.mrr


def test_task_group_keys():
    t = gradcheck_corpus()[0]
    assert task_group_key(t, "A") == t.q_rel_key
    assert task_group_key(t, "B") == t.group
    assert task_group_key(t, "C") == t.group
    with pytest.raises(ValueError):
        task_group_key(t, "Z")


def test_evaluate_runs_only_the_task_head(monkeypatch):
    data = overfit_corpus()
    model = CqaModel(vocabulary_for(data), m=4, d_w=4, d_feat=2, seed=0)
    every = score_triples(model, data)  # all three heads, bit-equal to one head's scores
    runs = []
    forward = model_module.TaskHead.forward

    def spy(head, *args):
        runs.append(next(t for t, h in model.heads.items() if h is head))
        return forward(head, *args)

    monkeypatch.setattr(model_module.TaskHead, "forward", spy)
    monkeypatch.setattr(evaluation, "SCORE_CHUNK", 5)
    for t in model.tasks:
        runs.clear()
        assert evaluate(model, data, t) == evaluate_scores(build_rows(data, every[t], t))
        assert runs == [t] * math.ceil(len(data) / 5)  # one head run per equal pass


def test_build_rows_validates_lengths():
    data = gradcheck_corpus()
    with pytest.raises(ValueError):
        build_rows(data, [0.5], "A")
    # the table it builds refuses a score that is not finite
    message = f"^score inf of doc {data[1].id!r} in query {data[1].group!r} is not finite$"
    with pytest.raises(ValueError, match=message):
        build_rows(data, [0.5, math.inf, *[0.5] * (len(data) - 2)], "C")


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


def test_a_candidate_list_of_up_to_100_triples_is_scored_in_one_pass(monkeypatch):
    data = conjunction_corpus(33, seed=0)  # 132 triples
    model = CqaModel(vocabulary_for(data), m=4, d_w=4, d_feat=2, seed=0)
    # lists of 100, 15 and 17 candidates, each under one new question
    lists = [data[:100], data[100:115], data[115:]]
    lists = [[dataclasses.replace(t, group=f"list{k}") for t in triples] for k, triples in enumerate(lists)]
    alone = [score_triples(model, triples) for triples in lists]
    sizes = []
    encode = CqaModel.encode

    def spy(self, batch, run):
        sizes.append(len(batch))
        return encode(self, batch, run)

    monkeypatch.setattr(CqaModel, "encode", spy)
    assert score_triples(model, lists[0], ("C",)).keys() == {"C"}
    assert sizes == [100, 100]  # the question run and the comment run of one pass
    everything = [t for triples in lists for t in triples]
    sizes.clear()
    score_triples(model, everything[:101])
    assert sorted(sizes) == [50, 50, 51, 51]  # one triple past a pass makes two
    sizes.clear()
    together = score_triples(model, everything[:129])
    assert sorted(sizes) == [64, 64, 65, 65]  # two equal passes, each with runs on both threads
    for task in model.tasks:
        want = [s for scores in alone for s in scores[task]][:129]
        np.testing.assert_allclose(together[task], want, rtol=0, atol=1e-6)


@pytest.fixture(scope="module")
def networks_300():
    """Small joint, pair-A, pair-B and pair-C networks, each with the features
    of the same 300 triples (75 lists of 4)."""
    data = conjunction_corpus(75, seed=0)
    vocab = vocabulary_for(data)
    models = [CqaModel(vocab, task=task, m=4, d_w=4, d_feat=2, seed=0) for task in (None, "A", "B", "C")]
    return [(model, model.featurize_all(data)) for model in models]


@pytest.fixture(scope="module")
def scored_300(networks_300):
    """The joint network of ``networks_300`` and its features."""
    return networks_300[0]


def passes_in_turn(model, features, tasks):
    """The slow reference: each pass's encoder runs and layers above in
    turn, all on the calling thread; ceil(n / SCORE_CHUNK) passes, pass k
    ending at triple floor((k + 1) * n / passes), so their sizes differ by at
    most one."""
    count = math.ceil(len(features) / evaluation.SCORE_CHUNK)
    ends = [k * len(features) // count for k in range(count + 1)]
    assert all(end - start <= evaluation.SCORE_CHUNK for start, end in zip(ends, ends[1:]))
    scores = {}
    for start, end in zip(ends, ends[1:]):
        for task, values in predict_in_turn(model, features[start:end], tasks=tasks).items():
            scores.setdefault(task, []).extend(values.data.tolist())
    return scores


@pytest.mark.parametrize("tasks", [None, ("C",)])
@pytest.mark.parametrize("n", [1, 55, 100, 101, 129, 300])
def test_score_features_matches_the_passes_run_in_turn(networks_300, n, tasks):
    # every network that scores the tasks: each pass splits its two encoder
    # runs between the threads (pair B has one); 100 is one pass, 101 two
    for model, features in networks_300:
        if tasks is not None and not set(tasks) <= set(model.tasks):
            continue
        got = evaluation.score_features(model, features[:n], tasks)
        want = passes_in_turn(model, features[:n], tasks)
        assert list(got) == list(want) == [t for t in model.tasks if tasks is None or t in tasks]
        for task in want:
            np.testing.assert_array_equal(got[task], want[task], err_msg=f"{model.task} {task}")  # bit for bit


def test_concurrent_calls_each_get_their_own_scores(scored_300):
    # eight callers share one model and queue on the one worker: four score
    # three passes, four a single pass, each pass split between the encoders;
    # switching threads every 10 us interleaves them as finely as the GIL allows
    model, features = scored_300
    calls = [features[k:] for k in range(4)] + [features[k : k + 100] for k in range(4)]
    want = [passes_in_turn(model, chunk, None) for chunk in calls]
    got = [None] * len(calls)

    def call(k):
        got[k] = evaluation.score_features(model, calls[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=call, args=(k,)) for k in range(len(calls))]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert got == want


def test_a_call_on_the_warm_worker_starts_no_thread_and_pair_b_never_submits(networks_300, monkeypatch):
    (joint, features), _, (pair_b, b_features), _ = networks_300
    nn._worker.submit(lambda: None).result()  # the worker's thread is running
    started, submitted = [], []
    start, submit = threading.Thread.start, nn._submit

    def spy_start(thread):
        started.append(thread)
        return start(thread)

    def spy_submit(*args):
        submitted.append(args)
        return submit(*args)

    monkeypatch.setattr(threading.Thread, "start", spy_start)
    monkeypatch.setattr(nn, "_submit", spy_submit)
    for model, feats, n, passes_on_the_worker in [
        (pair_b, b_features, 100, 0),  # one pass of one encoder run
        (pair_b, b_features, 129, 0),  # two such passes
        (joint, features, 0, 0),
        (joint, features, 1, 1),  # the comment encoder runs on the worker
        (joint, features, 100, 1),
        (joint, features, 300, 3),
    ]:
        submitted.clear()
        evaluation.score_features(model, feats[:n])
        assert len(submitted) == passes_on_the_worker, (model.task, n)
    assert started == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the platform has no fork()")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded, use of fork:DeprecationWarning")
def test_a_forked_child_scores_on_a_worker_of_its_own(scored_300):
    # the parent's worker has run, so its pool counts an idle thread that the
    # child does not have; without a fresh pool the child's scoring never ends
    model, features = scored_300
    want = passes_in_turn(model, features[:55], None)
    assert evaluation.score_features(model, features[:55]) == want
    pid = os.fork()
    if pid == 0:  # the child reports through its exit status and never returns into pytest
        status = 1
        try:
            status = 0 if evaluation.score_features(model, features[:55]) == want else 2
        finally:
            os._exit(status)
    deadline = time.monotonic() + 30
    while (ended := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if ended[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert ended[0] == pid, "the child's scoring did not end within 30 s"
    assert os.waitstatus_to_exitcode(ended[1]) == 0


def test_a_pass_that_raises_on_the_worker_raises_in_the_caller(scored_300, monkeypatch):
    model, features = scored_300
    nn._worker.submit(lambda: None).result()  # the worker's thread is running
    before = set(threading.enumerate())
    raised = []
    encode = CqaModel.encode

    def spy(self, batch, run):
        if threading.current_thread() is not threading.main_thread():
            raised.append(MemoryError("worker pass"))
            raise raised[-1]
        return encode(self, batch, run)

    monkeypatch.setattr(CqaModel, "encode", spy)
    for n in (55, 300):  # the comment run of its one pass, or of its first of three
        raised.clear()
        with pytest.raises(MemoryError) as caught:
            evaluation.score_features(model, features[:n])
        assert caught.value is raised[0]
        assert set(threading.enumerate()) == before


def test_a_call_that_raises_leaves_nothing_running_on_the_worker(scored_300, monkeypatch):
    # the caller raises in its first question run once the worker has begun
    # that pass's comment run, and waits for it; no later pass starts
    model, features = scored_300
    on_worker = []
    began, raised = threading.Event(), threading.Event()
    encode = CqaModel.encode

    def spy(self, batch, run):
        if threading.current_thread() is threading.main_thread():
            began.wait(timeout=10)
            raised.set()
            raise MemoryError("caller pass")
        on_worker.append(len(batch))
        began.set()
        raised.wait(timeout=10)
        return encode(self, batch, run)

    monkeypatch.setattr(CqaModel, "encode", spy)
    # the comment run of one pass; that of the first of three passes
    for n, runs in ((55, [55]), (300, [100])):
        began.clear()
        raised.clear()
        on_worker.clear()
        with pytest.raises(MemoryError, match="caller pass"):
            evaluation.score_features(model, features[:n])
        assert on_worker == runs
        nn._worker.submit(lambda: None).result()  # anything still queued has run by now
        assert on_worker == runs


def test_worker_passes_run_under_the_callers_numpy_error_state(scored_300, monkeypatch):
    model, features = scored_300
    seen = []
    encode = CqaModel.encode

    def spy(self, batch, run):
        seen.append((threading.current_thread() is threading.main_thread(), np.geterr()))
        return encode(self, batch, run)

    monkeypatch.setattr(CqaModel, "encode", spy)
    # each pass runs its comment encoder on the worker and its question
    # encoder on the caller: one pass of 55, three of 100
    for n, on_caller in ((55, [False, True]), (300, [False] * 3 + [True] * 3)):
        seen.clear()
        with np.errstate(divide="ignore", over="raise", under="warn", invalid="print"):
            caller = np.geterr()
            evaluation.score_features(model, features[:n])
        assert caller != np.geterr()  # the state differs from the default
        assert sorted(main for main, _ in seen) == on_caller
        assert all(errors == caller for _, errors in seen)


def test_score_features_inside_a_recording_returns_the_same_scores(scored_300):
    model, features = scored_300
    for n in (55, 300):
        outside = evaluation.score_features(model, features[:n])
        with nn.recording():
            inside = evaluation.score_features(model, features[:n])
        assert inside == outside


def blended(score, google_rank, alpha):
    """The blended score of one row, which keeps its key, id, rank and relevance."""
    table = RankTable.of([("q", "d", score, google_rank, 1)])
    [[(key, doc, s, rank, rel)]] = rank_rows(table.with_scores(table.blend([alpha])[0])).values()
    assert (key, doc, rank, rel) == ("q", "d", google_rank, 1)
    return s


def test_blend_rows():
    assert blended(0.8, 4, 0.75) == pytest.approx(0.75 * 0.8 + 0.25 * 0.25)
    assert blended(0.3, 2, 0.0) == 0.5  # pure search-rank prior
    assert blended(0.3, 2, 1.0) == 0.3  # pure model score
    with pytest.raises(ValueError):
        blended(0.5, 1, 1.5)


@pytest.mark.parametrize("alpha", [1.5, -0.01, math.nan])
def test_blend_rows_checks_alpha_without_rows(alpha):
    for check in (check_alpha, lambda a: RankTable.of([]).blend([a])):
        with pytest.raises(ValueError, match=rf"^alpha must lie in \[0, 1\], got {alpha}$"):
            check(alpha)


def test_tune_alpha_prefers_smallest_on_ties():
    # model score identical to the reciprocal rank: every alpha produces the
    # same ordering, so the grid search must return alpha = 0
    data = overfit_corpus()
    scores = [1.0 / t.google_rank for t in data]
    table = build_rows(data, scores, "C")
    alpha, best = tune_alpha(table)
    assert alpha == 0.0
    assert best == pytest.approx(evaluate_scores(table).map)


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


# Ranking rows drawn to tie: scores of 0.0 and -0.0 and other repeated values,
# repeated search ranks (and ranks past 2**64), and keys and ids from a small
# alphabet with NUL and non-ASCII characters, so groups repeat ids, some
# groups hold one row and some hold no positive.
_TEXT = st.text(alphabet="a\x00\u00e9\u4e2d", max_size=2)
_SCORE = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0]), st.floats(allow_nan=False, allow_infinity=False))
_RANK = st.one_of(st.integers(1, 4), st.integers(1, 2**70))
_ROWS = st.lists(st.tuples(_TEXT, _TEXT, _SCORE, _RANK, st.integers(0, 1)), max_size=40)


@settings(max_examples=300, deadline=None)
@given(rows=_ROWS, alpha=st.floats(0, 1))
def test_ranking_matches_the_per_row_oracle(rows, alpha):
    # the table as built, and blended with one weight, against the per-row
    # oracles over the rows and over the rows blended one at a time
    table = RankTable.of(rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "preds.tsv")
        for got, oracle_rows in ((table, rows), (table.with_scores(table.blend([alpha])[0]), blend_rows(rows, alpha))):
            # repr tells -0.0 from 0.0, so equal-looking rows must come back in order
            assert repr(rank_rows(got)) == repr(naive_rank_rows(oracle_rows))
            try:
                expected = naive_evaluate_scores(oracle_rows)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    evaluate_scores(got)
            else:
                assert evaluate_scores(got) == expected
            write_predictions(path, got)
            with open(path, "rb") as fh:
                assert fh.read() == naive_predictions_tsv(oracle_rows).encode("utf-8")
    try:
        expected = naive_tune_alpha(rows)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            tune_alpha(table)
    else:
        assert tune_alpha(table) == expected


def test_ranking_matches_the_per_row_oracle_over_many_queries(tmp_path):
    # enough judged queries that a sum in another order than Python's would
    # round the MAP differently
    rng = np.random.default_rng(11)
    rows = [
        (f"q{q}", f"d{int(rng.integers(8))}", round(float(rng.normal()), 1), int(rng.integers(1, 11)),
         int(rng.random() < 0.3))
        for q in range(80)
        for _ in range(int(rng.integers(1, 13)))
    ]
    table = RankTable.of(rows)
    assert evaluate_scores(table) == naive_evaluate_scores(rows)
    assert tune_alpha(table) == naive_tune_alpha(rows)
    assert repr(rank_rows(table)) == repr(naive_rank_rows(rows))
    write_predictions(str(tmp_path / "preds.tsv"), table)
    assert (tmp_path / "preds.tsv").read_bytes() == naive_predictions_tsv(rows).encode("utf-8")


@pytest.mark.parametrize(
    "scores, named, named_reversed",
    [((math.nan, 0.5, 0.9), "a", "a"), ((0.9, math.inf, -math.inf), "b", "c")],
)
def test_ranking_refuses_non_finite_scores(scores, named, named_reversed):
    # a nan compares false both ways, so the MAP these rows gave depended on
    # their order: 50.0 with the nan row first, 100.0 with the rows reversed;
    # no table holds such a score, so no ranking can see one
    rows = [("q", doc, s, rank, rel) for doc, s, rank, rel in zip("abc", scores, (1, 2, 3), (0, 0, 1))]
    for ordered, doc in ((rows, named), (rows[::-1], named_reversed)):
        message = f"^score {dict(zip('abc', scores))[doc]} of doc {doc!r} in query 'q' is not finite$"
        with pytest.raises(ValueError, match=message):
            RankTable.of(ordered)
        finite = RankTable.of([(key, doc, 0.0, rank, rel) for key, doc, _, rank, rel in ordered])
        with pytest.raises(ValueError, match=message):
            finite.with_scores([row[2] for row in ordered])


def test_ranking_refuses_a_relevance_other_than_0_or_1():
    with pytest.raises(ValueError, match="^relevance must be 0 or 1, got 2$"):
        RankTable.of([("q", "a", 0.5, 1, 1), ("q", "b", 0.5, 1, 2)])


def test_tune_alpha_memory_is_linear_in_rows():
    # one 2,000-row query and 5,000 one-row queries: an array padded to
    # queries x longest query would hold 10 million cells, 80 MB in float64
    rng = np.random.default_rng(3)
    rows = [("big", f"d{i}", float(rng.random()), i + 1, int(i % 3 == 0)) for i in range(2000)]
    rows += [(f"q{i}", f"s{i}", float(rng.random()), 1 + i % 7, int(i % 3 == 0)) for i in range(5000)]
    tracemalloc.start()
    try:
        tune_alpha(RankTable.of(rows))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 101 * len(rows) * 64
