"""Acceptance suite: one test per release criterion, each printing a PASS
line with the measured numbers once its assertions hold."""

import dataclasses
import math
import os
import statistics
import time

import numpy as np
import pytest

import cqarank.nn_core as nn
import cqarank.training as training
from cqarank.dataset import binarize, extend_dataset, load_corpus, positive_rates
from cqarank.evaluation import RankTable, evaluate_scores
from cqarank.model import CqaModel, rank_bin
from cqarank.synthetic import conjunction_corpus, gradcheck_corpus, overfit_corpus
from cqarank.text_pipeline import vocabulary_for
from cqarank.training import TrainConfig, joint_loss, save_checkpoint, snapshot, train
from oracles import naive_conv1d_wide, naive_dense, naive_kmax


def report(criterion, detail):
    print(f"CRITERION {criterion}: PASS ({detail})")


# ---------------------------------------------------------------------------
# 1. analytic gradients of the full multitask model
# ---------------------------------------------------------------------------


def test_criterion_1_full_model_gradient_check():
    started = time.monotonic()
    data = gradcheck_corpus()
    vocab = vocabulary_for(data)
    model = CqaModel(vocab, m=8, d_w=10, d_feat=3, seed=0, dtype=np.float64)
    features = [model.featurize(t) for t in data]
    gold = [binarize(t) for t in data]

    def loss_fn():
        return nn.add_n(
            [joint_loss(model.predict(f), [g], ("A", "B", "C")) for f, g in zip(features, gold)]
        )

    max_err = nn.grad_check(
        loss_fn, model.parameters(), probe_count=200, delta=1e-4,
        rng=np.random.default_rng(0),
    )
    # the operator-facing command runs the same check with its defaults
    from cqarank.cli import main

    assert main(["gradcheck"]) == 0
    elapsed = time.monotonic() - started
    assert max_err < 1e-4, f"max relative gradient error {max_err:.3e} >= 1e-4"
    assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s >= 30s"
    report(1, f"200 probes, max rel err {max_err:.3e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. layer forward passes against naive loop oracles
# ---------------------------------------------------------------------------


def test_criterion_2_layer_oracles_on_random_shapes():
    started = time.monotonic()
    rng = np.random.default_rng(1)
    shapes = 0
    worst = 0.0
    for _ in range(40):
        # a packed batch of 1-4 occurrences of 1-3 texts: each text once, in
        # order, then the repeats grouped by text; each occurrence stacks its
        # text's word rows on its own feature rows (a feature table with a row
        # per occurrence column)
        m, d_w, d_feat, w = rng.integers(1, 7), rng.integers(1, 7), rng.integers(1, 4), rng.integers(1, 6)
        lengths = rng.integers(1, 13, size=int(rng.integers(1, 4)))
        extra = rng.integers(0, lengths.size, size=int(rng.integers(0, 5 - lengths.size)))
        texts = np.r_[np.arange(lengths.size), np.sort(extra)]
        words = nn.Parameter("words", rng.normal(size=(d_w, lengths.sum())).T)
        feats = nn.Parameter("feats", rng.normal(size=(lengths[texts].sum(), d_feat)))
        filters = nn.Parameter("f", rng.normal(size=(m, d_w + d_feat, w)))
        bias = nn.Parameter("b", rng.normal(size=m))
        got = nn.conv1d_wide(words, feats, np.arange(lengths[texts].sum()), filters, bias, lengths, texts).data
        text_words = np.split(words.data.T, np.cumsum(lengths)[:-1], axis=1)
        occurrences = np.split(feats.data.T, np.cumsum(lengths[texts])[:-1], axis=1)
        stacked = [np.vstack([text_words[t], f]) for t, f in zip(texts, occurrences)]
        want = np.concatenate([naive_conv1d_wide(x, filters.data, bias.data) for x in stacked], axis=1)
        worst = max(worst, float(np.max(np.abs(got - want))))
        shapes += 1
    for act in ("tanh", "sigmoid"):
        for _ in range(14):
            i, j = rng.integers(1, 9), rng.integers(1, 9)
            x = nn.Parameter("x", rng.normal(size=(1, j)))
            weight = nn.Parameter("w", rng.normal(size=(i, j)))
            bias = nn.Parameter("b", rng.normal(size=i))
            got = nn.dense(x, weight, bias, act).data[0]
            worst = max(worst, float(np.max(np.abs(got - naive_dense(x.data[0], weight.data, bias.data, act)))))
            shapes += 1
    for _ in range(40):
        m, n = rng.integers(1, 9), rng.integers(1, 14)
        x = nn.Parameter("x", rng.normal(size=(m, n)))
        worst = max(worst, float(np.max(np.abs(nn.kmax_pool(x, [n], [0]).data[0] - naive_kmax(x.data)))))
        shapes += 1
    elapsed = time.monotonic() - started
    assert shapes >= 100
    assert worst < 1e-6, f"worst layer deviation {worst:.3e} >= 1e-6"
    assert elapsed < 10.0, f"layer oracles took {elapsed:.1f}s >= 10s"
    report(2, f"{shapes} random shapes, worst abs deviation {worst:.3e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. ranking metrics against brute force and a known expectation
# ---------------------------------------------------------------------------


def brute_force_ap(rel):
    hits = [sum(rel[: k + 1]) / (k + 1) for k in range(len(rel)) if rel[k]]
    return sum(hits) / sum(rel)


def test_criterion_3_ranking_metric_oracles():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        n = int(rng.integers(1, 20))
        rel = [int(rng.random() < 0.35) for _ in range(n)]
        if sum(rel) == 0:
            rel[int(rng.integers(n))] = 1
        # one query whose descending scores rank its rows in list order
        result = evaluate_scores(RankTable.of([("q", f"d{k}", float(n - k), 1, r) for k, r in enumerate(rel)]))
        assert result.per_query_ap == (brute_force_ap(rel),)
        assert result.mrr == 100.0 * (1.0 / (rel.index(1) + 1))

    # one relevant document among ten, placed uniformly at random: the MAP
    # expectation is H_10 / 10 = 0.2928968...  The queries form one table,
    # built from its columns: query q ranks documents d0..d9 in that order.
    queries = 100_000
    positions = rng.integers(10, size=queries)
    doc = np.tile(np.arange(10), queries)
    table = RankTable(
        keys=tuple(f"q{q:06d}" for q in range(queries)),
        ids=tuple(f"d{k}" for k in range(10)),
        ranks=(1,),
        group=np.repeat(np.arange(queries), 10),
        doc=doc,
        rank=np.zeros(doc.size, dtype=np.intp),
        score=np.tile(np.arange(10, 0, -1.0), queries),
        rel=doc == np.repeat(positions, 10),
    )
    result = evaluate_scores(table)
    assert result.query_count == queries
    mean_ap = sum(result.per_query_ap) / queries
    expected = 0.2928968253968254
    assert abs(mean_ap - expected) < 0.01, f"random MAP {mean_ap:.6f} not within 0.01 of {expected:.6f}"
    report(3, f"1000 rankings exact, random MAP {mean_ap:.4f} vs {expected:.4f}")


# ---------------------------------------------------------------------------
# 4. memorization of a small corpus
# ---------------------------------------------------------------------------


def test_criterion_4_overfits_fifty_triples():
    started = time.monotonic()
    data = overfit_corpus()
    assert len(data) == 50
    vocab = vocabulary_for(data)
    model = CqaModel(vocab, m=50, seed=0)
    config = TrainConfig(
        epochs=100, batch_size=10, lr=0.01, dropout_input=0.0, dropout_hidden=0.0,
        patience=100, stopping="global", seed=0,
    )
    train_report = train(model, data, data, config)
    elapsed = time.monotonic() - started
    last = train_report.history[-1]
    assert train_report.stop_epoch <= 200
    assert last.loss_dev < 0.05, f"final loss {last.loss_dev:.4f} >= 0.05"
    for task in ("A", "B", "C"):
        assert last.task_map[task] == 100.0, f"task {task} MAP {last.task_map[task]:.2f} != 100.0"
    assert elapsed < 120.0, f"overfit run took {elapsed:.1f}s >= 120s"
    report(
        4,
        f"loss {last.loss_dev:.5f} after {train_report.stop_epoch} epochs, "
        f"MAP 100/100/100, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. joint training reaches the comment-task target no later than the
#    single-task model
# ---------------------------------------------------------------------------


def epochs_to_reach(model, data, dev, tasks, seed, target):
    config = TrainConfig(
        epochs=15, batch_size=8, lr=0.005, dropout_input=0.0, dropout_hidden=0.0,
        patience=15, stopping="global", seed=seed, tasks=tasks,
    )
    rep = train(model, data, dev, config)
    for row in rep.history:
        if row.task_loss["C"] <= target:
            return row.epoch
    return math.inf


def test_criterion_5_multitask_benefit_on_task_c():
    target = 0.45
    dev = conjunction_corpus(n_groups=12, candidates_per_group=4, seed=9999)
    joint_epochs = []
    solo_epochs = []
    for seed in range(5):
        data = conjunction_corpus(n_groups=24, candidates_per_group=4, seed=100 + seed)
        vocab = vocabulary_for(data)
        hyper = dict(m=16, d_w=16, d_feat=4, seed=seed)
        joint_epochs.append(
            epochs_to_reach(CqaModel(vocab, **hyper), data, dev, ("A", "B", "C"), seed, target)
        )
        solo_epochs.append(
            epochs_to_reach(CqaModel(vocab, task="C", **hyper), data, dev, ("C",), seed, target)
        )
    joint_median = statistics.median(joint_epochs)
    solo_median = statistics.median(solo_epochs)
    assert joint_median <= solo_median, (
        f"joint model needed median {joint_median} epochs vs {solo_median} for the "
        f"single-task model (per-seed: {joint_epochs} vs {solo_epochs})"
    )
    report(
        5,
        f"median epochs to dev loss {target}: joint {joint_median} <= solo {solo_median}; "
        f"per-seed joint {joint_epochs}, solo {solo_epochs}",
    )


# ---------------------------------------------------------------------------
# 6. dataset extension
# ---------------------------------------------------------------------------


def test_criterion_6_extension_properties():
    data = conjunction_corpus(n_groups=10, candidates_per_group=4, seed=5)
    derived = extend_dataset(data)
    assert len(derived) == len({(t.q_rel_key, t.c_rel) for t in data})
    for d in derived:
        assert d.q_new_subject == d.q_rel_subject
        assert d.q_new_body == d.q_rel_body
        assert d.label_B == "perfect_match"
        assert d.label_C == d.label_A
        assert d.google_rank == 1
        assert binarize(d)["B"] == 1
    # deriving twice from the same corpus is deterministic
    assert extend_dataset(data) == derived
    report(6, f"{len(derived)} derived triples, all self-match properties hold")


SEMEVAL_ENV = "CQA_SEMEVAL_CORPUS"


@pytest.mark.skipif(SEMEVAL_ENV not in os.environ, reason=f"set {SEMEVAL_ENV} to run")
def test_criterion_6_extension_on_real_corpus():
    data = load_corpus(os.environ[SEMEVAL_ENV])
    extended = list(data) + extend_dataset(data)
    assert len(extended) == 34_100
    rates = positive_rates(extended)
    expected = (37.47, 64.38, 21.25)
    for got, want in zip(rates, expected):
        assert abs(got - want) < 0.05
    report(6, f"real corpus: {len(extended)} triples, rates {rates}")


# ---------------------------------------------------------------------------
# 7. early stopping arithmetic and snapshot restoration
# ---------------------------------------------------------------------------


def scripted_dev_pass(script):
    captures = {}

    def fake(model, dev, tasks, worker):
        epoch = len(captures) + 1
        captures[epoch] = snapshot(model)
        losses = {t: script[t][min(epoch, len(script[t])) - 1] for t in tasks}
        return losses, {t: math.nan for t in tasks}

    return fake, captures


def test_criterion_7_early_stopping_both_modes(monkeypatch):
    data = gradcheck_corpus()
    vocab = vocabulary_for(data)

    # joint mode: improvements at epochs 1 and 2, patience 10 -> stop at 12
    script = {t: [1.0, 0.9] + [0.95] * 100 for t in ("A", "B", "C")}
    fake, captures = scripted_dev_pass(script)
    monkeypatch.setattr(training, "_dev_pass", fake)
    model = CqaModel(vocab, m=4, d_w=4, d_feat=2, seed=0)
    rep = train(model, data, data, TrainConfig(epochs=100, batch_size=4, patience=10, seed=0))
    assert rep.stop_epoch == 12
    assert rep.best_epoch == {"joint": 2}
    for name, value in snapshot(model).items():
        np.testing.assert_array_equal(value, captures[2][name])

    # per-task mode: last improvements at epochs 3 / 1 / 5 -> stop at 15,
    # one snapshot per task frozen at its own best epoch
    script = {
        "A": [1.0, 0.9, 0.8] + [0.85] * 100,
        "B": [1.0] + [1.1] * 100,
        "C": [1.0, 0.9, 0.8, 0.7, 0.6] + [0.65] * 100,
    }
    fake, captures = scripted_dev_pass(script)
    monkeypatch.setattr(training, "_dev_pass", fake)
    model = CqaModel(vocab, m=4, d_w=4, d_feat=2, seed=0)
    rep = train(
        model, data, data,
        TrainConfig(epochs=100, batch_size=4, patience=10, stopping="per_task", seed=0),
    )
    assert rep.stop_epoch == 15
    assert rep.best_epoch == {"A": 3, "B": 1, "C": 5}
    for task, best in rep.best_epoch.items():
        for name, value in rep.snapshots[task].items():
            np.testing.assert_array_equal(value, captures[best][name])
    report(7, "joint stop at 12 (best 2), per-task stop at 15 (best 3/1/5), snapshots verified")


# ---------------------------------------------------------------------------
# 8. sharing, invariances, and determinism
# ---------------------------------------------------------------------------


def test_criterion_8_sharing_and_invariances(tmp_path):
    data = gradcheck_corpus()
    vocab = vocabulary_for(data)

    # (a) the question encoder exists once: no duplicated parameter objects
    # or names, and editing it moves both question representations
    model = CqaModel(vocab, m=4, d_w=4, d_feat=2, seed=0)
    params = model.parameters()
    assert len({id(p) for p in params}) == len(params)
    assert len({p.name for p in params}) == len(params)
    pair_b = CqaModel(vocab, task="B", m=4, d_w=4, d_feat=2, seed=0)
    assert pair_b.c_encoder is None

    # (b) zeroed rank table -> search rank cannot influence predictions
    model.rank_emb.data[:] = 0.0
    base = data[0]
    reference = {t: v.data[0] for t, v in model.predict(model.featurize(base)).items()}
    for rank in (2, 9, 11, 26, 5000):
        variant = dataclasses.replace(base, google_rank=rank)
        preds = model.predict(model.featurize(variant))
        for task in ("A", "B", "C"):
            assert preds[task].data[0] == reference[task]

    # (c) MAP/MRR only depend on the score ordering
    rng = np.random.default_rng(3)
    rows = []
    for q in range(15):
        for d in range(6):
            rows.append((f"q{q}", f"d{d}", float(rng.random()), d + 1, int(rng.random() < 0.3)))
    base_eval = evaluate_scores(RankTable.of(rows))
    for transform in (lambda s: 10.0 * s - 4.0, math.exp, lambda s: s**5 + s):
        mapped = [(q, d, transform(s), g, r) for q, d, s, g, r in rows]
        got = evaluate_scores(RankTable.of(mapped))
        assert got.map == base_eval.map and got.mrr == base_eval.mrr

    # (d) the rank discretization is total and monotone over 1..10000
    previous = 0
    seen = set()
    for rank in range(1, 10_001):
        b = rank_bin(rank)
        assert 0 <= b < 5 and b >= previous
        previous = b
        seen.add(b)
    assert seen == {0, 1, 2, 3, 4}

    # (e) a fixed seed yields bit-identical checkpoints across runs
    files = []
    for run in range(2):
        model = CqaModel(vocab, m=4, d_w=4, d_feat=2, seed=11)
        config = TrainConfig(epochs=2, batch_size=4, seed=11, patience=10)
        train(model, data, data, config)
        path = tmp_path / f"run{run}.ckpt"
        save_checkpoint(str(path), model)
        files.append(path.read_bytes())
    assert files[0] == files[1]

    report(8, "sharing, rank-table, monotone-transform, rank-bin, and checkpoint checks hold")
