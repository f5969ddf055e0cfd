import dataclasses
import hashlib
import json
import math
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cqarank.cli as cli
import cqarank.evaluation as evaluation
import cqarank.model as model_module
import cqarank.nn_core as nn
import cqarank.training as training
from cqarank.dataset import LABELS, binarize, make_batches
from cqarank.evaluation import build_rows, evaluate
from cqarank.model import TASKS, CqaModel, parameter_table
from cqarank.synthetic import gradcheck_corpus
from cqarank.text_pipeline import vocabulary_for
from cqarank.training import (
    CheckpointError,
    EarlyStopper,
    TrainConfig,
    joint_loss,
    load_checkpoint,
    restore,
    save_checkpoint,
    snapshot,
    train,
    write_history_csv,
)
from oracles import predict_in_turn


@pytest.fixture(scope="module")
def corpus():
    return gradcheck_corpus()


@pytest.fixture(scope="module")
def vocab(corpus):
    return vocabulary_for(corpus)


def small_model(vocab, **kw):
    kw.setdefault("m", 4)
    kw.setdefault("d_w", 4)
    kw.setdefault("d_feat", 2)
    return CqaModel(vocab, **kw)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def test_joint_loss_sums_active_tasks():
    preds = {t: nn.Tensor(np.array([0.5])) for t in ("A", "B", "C")}
    labels = [{"A": 1, "B": 1, "C": 1}]
    total = joint_loss(preds, labels, ("A", "B", "C"))
    assert total.data[0] == pytest.approx(2.0794415416798357, rel=1e-12)
    single = joint_loss(preds, labels, ("A",))
    assert single.data[0] == pytest.approx(0.6931471805599453, rel=1e-12)


def test_joint_loss_masks_gradients_of_inactive_tasks():
    params = {t: nn.Parameter(t, np.array([0.4])) for t in ("A", "B", "C")}
    with nn.recording():
        loss = joint_loss(params, [{"A": 1, "B": 0, "C": 1}], ("A", "C"))
        loss.backward()
    assert params["A"].grad[0] != 0.0
    assert params["C"].grad[0] != 0.0
    assert params["B"].grad[0] == 0.0


# ---------------------------------------------------------------------------
# configuration and early stopping
# ---------------------------------------------------------------------------


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(stopping="sometimes")
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(patience=0)
    with pytest.raises(ValueError):
        TrainConfig(tasks=("A", "X"))
    with pytest.raises(ValueError):
        TrainConfig(tasks=())
    with pytest.raises(ValueError):
        TrainConfig(tasks=("A", "C", "A"))
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    # rmsprop needs a positive finite step, a decay in [0, 1) and a positive
    # eps, lr and eps in float32 too; dropout rates lie in [0, 1) and the
    # seed is not negative
    for bad in (dict(lr=-1.0), dict(lr=0.0), dict(lr=math.inf), dict(lr=math.nan), dict(lr=1e-50),
                dict(rho=1.0), dict(rho=-0.1), dict(eps=0.0), dict(eps=math.inf), dict(eps=1e-46),
                dict(eps=1e300), dict(dropout_input=1.0), dict(dropout_hidden=-0.1),
                dict(dropout_hidden=math.nan), dict(seed=-1)):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    # an infinite eps would divide every rmsprop step down to nothing
    with pytest.raises(ValueError, match=r"^eps must be positive and finite in float32, got inf$"):
        TrainConfig(eps=math.inf)
    # and an eps that is 0 in float32 divides 0 by 0 on every untouched row
    with pytest.raises(ValueError, match=r"^eps must be positive and finite in float32, got 1e-46$"):
        TrainConfig(eps=1e-46)


def test_early_stopper_counts_non_improvements():
    s = EarlyStopper(patience=2)
    assert s.update(1.0, 1) is True
    assert s.update(0.9, 2) is True
    assert s.update(0.9, 3) is False  # equal is not an improvement
    assert not s.should_stop
    assert s.update(0.95, 4) is False
    assert s.should_stop
    assert s.best_epoch == 2
    with pytest.raises(ValueError):
        EarlyStopper(patience=0)


def scripted_dev_pass(script):
    """Fake dev pass driven by a per-epoch loss table; records the parameter
    values seen at each call so snapshot bookkeeping can be verified."""
    captures = {}

    def fake(model, dev, tasks):
        epoch = len(captures) + 1
        captures[epoch] = snapshot(model)
        losses = {t: script[t][min(epoch, len(script[t])) - 1] for t in tasks}
        return losses, {t: math.nan for t in tasks}

    return fake, captures


def test_global_stopping_halts_patience_epochs_after_last_improvement(
    corpus, vocab, monkeypatch
):
    # dev loss improves at epochs 1 and 2, then goes flat: with patience 10
    # training must stop at epoch 12 and keep the epoch-2 weights
    script = {t: [1.0, 0.9] + [0.95] * 100 for t in ("A", "B", "C")}
    fake, captures = scripted_dev_pass(script)
    monkeypatch.setattr(training, "_dev_pass", fake)

    model = small_model(vocab)
    config = TrainConfig(epochs=100, batch_size=4, patience=10, stopping="global", seed=1)
    report = train(model, corpus, corpus, config)

    assert report.stop_epoch == 12
    assert report.stopped_early is True
    assert report.best_epoch == {"joint": 2}
    assert len(report.history) == 12
    # the model must end up with the weights snapshotted at epoch 2
    for name, value in snapshot(model).items():
        np.testing.assert_array_equal(value, captures[2][name])
        np.testing.assert_array_equal(value, report.snapshots["joint"][name])


def test_global_stopping_runs_to_the_epoch_budget_without_stall(corpus, vocab, monkeypatch):
    script = {t: [1.0 / (e + 1) for e in range(50)] for t in ("A", "B", "C")}
    fake, _ = scripted_dev_pass(script)
    monkeypatch.setattr(training, "_dev_pass", fake)
    model = small_model(vocab)
    config = TrainConfig(epochs=5, batch_size=4, patience=10, stopping="global", seed=1)
    report = train(model, corpus, corpus, config)
    assert report.stop_epoch == 5
    assert report.stopped_early is False
    assert report.best_epoch == {"joint": 5}


def test_per_task_stopping_keeps_one_snapshot_per_task(corpus, vocab, monkeypatch):
    # tasks stall at different epochs; training runs until every task has
    # been stalled for `patience` epochs and keeps each task's best weights
    script = {
        "A": [1.0, 0.9, 0.8] + [0.85] * 100,
        "B": [1.0] + [1.1] * 100,
        "C": [1.0, 0.9, 0.8, 0.7, 0.6] + [0.65] * 100,
    }
    fake, captures = scripted_dev_pass(script)
    monkeypatch.setattr(training, "_dev_pass", fake)

    model = small_model(vocab)
    config = TrainConfig(epochs=100, batch_size=4, patience=10, stopping="per_task", seed=1)
    report = train(model, corpus, corpus, config)

    assert report.best_epoch == {"A": 3, "B": 1, "C": 5}
    assert report.stop_epoch == 15  # last improvement (C at 5) + patience
    assert report.stopped_early is True
    for task, best in report.best_epoch.items():
        for name, value in report.snapshots[task].items():
            np.testing.assert_array_equal(value, captures[best][name])


def test_train_runs_end_to_end(corpus, vocab):
    model = small_model(vocab)
    config = TrainConfig(epochs=2, batch_size=2, patience=10, seed=0,
                         dropout_input=0.2, dropout_hidden=0.2)
    records = []
    report = train(model, corpus, corpus, config, log=records.append)
    assert len(report.history) == 2
    assert report.stop_epoch == 2
    assert all(math.isfinite(row.loss_train) for row in report.history)
    assert all(math.isfinite(row.loss_dev) for row in report.history)
    assert records == report.history
    assert [r.epoch for r in records] == [1, 2]
    assert all(list(r.task_map) == list(TASKS) for r in records)


def test_dev_rows_are_built_once_per_run(corpus, vocab, monkeypatch):
    calls = []
    real_key = evaluation.task_group_key

    def counting_key(triple, task):
        calls.append((triple.id, task))
        return real_key(triple, task)

    monkeypatch.setattr(evaluation, "task_group_key", counting_key)
    config = TrainConfig(epochs=3, batch_size=2, patience=10, seed=0)
    report = train(small_model(vocab), corpus, corpus, config)
    assert report.stop_epoch == 3
    assert sorted(calls) == sorted((t.id, task) for t in corpus for task in TASKS)


def test_dev_pass_map_is_nan_without_a_positive_or_a_finite_score(corpus, vocab, monkeypatch):
    model = small_model(vocab)
    dev = [dataclasses.replace(t, label_A=LABELS["A"][-1]) for t in corpus]  # no task-A positive
    dev_set = (model.featurize_all(dev), {t: build_rows(dev, [0.0] * len(dev), t) for t in TASKS})
    task_loss, task_map = training._dev_pass(model, dev_set, TASKS)
    assert all(math.isfinite(v) for v in task_loss.values())
    assert math.isnan(task_map["A"])
    assert task_map["B"] == evaluate(model, dev, "B").map
    assert task_map["C"] == evaluate(model, dev, "C").map
    # nan scores: the loss shows them, and no ranking is attempted
    monkeypatch.setattr(training, "score_features", lambda m, f, tasks: {t: [math.nan] * len(dev) for t in TASKS})
    task_loss, task_map = training._dev_pass(model, dev_set, TASKS)
    assert all(math.isnan(v) for v in [*task_loss.values(), *task_map.values()])
    # any other ranking error is raised, not read as a nan MAP
    monkeypatch.setattr(training, "score_features", lambda m, f, tasks: {t: [0.5] for t in TASKS})
    with pytest.raises(ValueError, match=f"^1 scores for {len(dev)} rows$"):
        training._dev_pass(model, dev_set, ("C",))


def test_train_is_deterministic_for_a_seed(corpus, vocab):
    results = []
    for _ in range(2):
        model = small_model(vocab, seed=7)
        config = TrainConfig(epochs=3, batch_size=2, patience=10, seed=7)
        report = train(model, corpus, corpus, config)
        results.append((snapshot(model), [r.loss_train for r in report.history]))
    assert results[0][1] == results[1][1]
    for name in results[0][0]:
        np.testing.assert_array_equal(results[0][0][name], results[1][0][name])


def test_batched_training_matches_the_per_example_loop(corpus, vocab):
    # float64, dropout on: one graph per batch gives the parameters of one
    # graph per triple, summed and averaged per batch
    config = TrainConfig(epochs=1, batch_size=3, seed=3)
    model = small_model(vocab, seed=2, dtype=np.float64)
    train(model, corpus, corpus, config)

    oracle = small_model(vocab, seed=2, dtype=np.float64)
    opt = nn.RmsProp(oracle.parameters(), lr=config.lr, rho=config.rho, eps=config.eps)
    features = [oracle.featurize(t) for t in corpus]
    drop_rng = np.random.default_rng([config.seed, 1, 1])
    for batch in make_batches(list(range(len(corpus))), config.batch_size, seed=[config.seed, 1, 0]):
        opt.zero_grads()
        with nn.recording():
            losses = [
                joint_loss(oracle.predict(features[i], training=True, rng=drop_rng), [binarize(corpus[i])], TASKS)
                for i in batch
            ]
            nn.scale(nn.add_n(losses), 1.0 / len(batch)).backward()
        opt.step()
    for p, q in zip(model.parameters(), oracle.parameters()):
        np.testing.assert_allclose(p.data, q.data, rtol=0, atol=1e-10, err_msg=p.name)


def test_train_rejects_mismatched_tasks_and_empty_data(corpus, vocab):
    pair = CqaModel(vocab, task="B", m=4, d_w=4, d_feat=2)
    with pytest.raises(ValueError):
        train(pair, corpus, corpus, TrainConfig(tasks=("A",)))
    model = small_model(vocab)
    with pytest.raises(ValueError):
        train(model, [], corpus, TrainConfig())
    with pytest.raises(ValueError):
        train(model, corpus, [], TrainConfig())


def test_train_raises_on_non_finite_loss(corpus, vocab, monkeypatch):
    def bad_loss(preds, labels, tasks):
        return nn.Tensor(np.array([math.inf]))

    monkeypatch.setattr(training, "joint_loss", bad_loss)
    model = small_model(vocab)
    with pytest.raises(nn.NumericError, match="epoch 1"):
        train(model, corpus, corpus, TrainConfig(epochs=1, batch_size=4))


# ---------------------------------------------------------------------------
# training on two threads
# ---------------------------------------------------------------------------


def spy_on_encode(monkeypatch):
    """Patch ``CqaModel.encode`` to note, per call, whether it ran on the main
    thread and whether that thread was recording."""
    calls = []
    encode = CqaModel.encode

    def spy(self, batch, run):
        calls.append((threading.current_thread() is threading.main_thread(), nn._tape.ops is not None))
        return encode(self, batch, run)

    monkeypatch.setattr(CqaModel, "encode", spy)
    return calls


def step_gradients(model, features, labels, predict=CqaModel.predict):
    """Every parameter's gradient after one training step's backward, with
    dropout on, the batch scored by ``predict``: ``CqaModel.predict`` splits
    the encoders between the caller and the worker, ``predict_in_turn`` runs
    them in turn on the caller."""
    for p in model.parameters():
        p.zero_grad()
    with nn.recording():
        preds = predict(model, features, training=True, rng=np.random.default_rng(5))
        nn.scale(joint_loss(preds, labels, model.tasks), 1.0 / len(features)).backward()
    return {p.name: p.grad.copy() for p in model.parameters()}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("task", [None, "A", "B", "C"])
def test_a_training_step_on_two_threads_gives_the_gradients_of_one(corpus, vocab, monkeypatch, task, dtype):
    model = small_model(vocab, task=task, seed=3, dtype=dtype)
    features = model.featurize_all(corpus)
    labels = [binarize(t) for t in corpus]
    calls = spy_on_encode(monkeypatch)
    want = step_gradients(model, features, labels, predict_in_turn)
    assert calls == [(True, True)] * len(model.encoder_runs)
    calls.clear()
    got = step_gradients(model, features, labels)
    # a network with two encoder runs encodes its comments on the worker
    on_worker = [(False, True)] if len(model.encoder_runs) == 2 else []
    assert sorted(calls) == on_worker + [(True, True)]
    for name, grad in want.items():
        assert grad.any(), name
        np.testing.assert_array_equal(got[name], grad, err_msg=name)  # bit for bit


def test_concurrent_training_steps_each_get_their_own_gradients(corpus, vocab):
    # four callers, each with its own network, queue on the one worker,
    # switching threads every 10 us: no op of one caller's step lands on
    # another's tape
    models = [small_model(vocab, seed=3) for _ in range(5)]
    features = models[0].featurize_all(corpus)
    labels = [binarize(t) for t in corpus]
    want = step_gradients(models[0], features, labels, predict_in_turn)
    got = [None] * 4

    def call(k):
        got[k] = [step_gradients(models[k + 1], features, labels) for _ in range(5)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=call, args=(k,)) for k in range(4)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for steps in got:
        for grads in steps:
            for name in want:
                np.testing.assert_array_equal(grads[name], want[name], err_msg=name)


def test_a_training_run_on_the_warm_worker_starts_no_thread_and_matches_the_encoders_run_in_turn(
    corpus, vocab, monkeypatch
):
    config = TrainConfig(epochs=2, batch_size=3, seed=4)
    in_turn = small_model(vocab, seed=4)
    with monkeypatch.context() as mp:
        mp.setattr(CqaModel, "predict", predict_in_turn)
        want = train(in_turn, corpus, corpus, config)
    calls = spy_on_encode(monkeypatch)
    nn._worker.submit(lambda: None).result()  # the worker's thread is running
    started = []
    start = threading.Thread.start

    def spy(thread):
        started.append(thread)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    model = small_model(vocab, seed=4)
    got = train(model, corpus, corpus, config)
    assert started == []
    batches = math.ceil(len(corpus) / config.batch_size)
    assert calls.count((False, True)) == config.epochs * batches  # each batch's comment run
    assert got.history == want.history
    for p, q in zip(model.parameters(), in_turn.parameters()):
        np.testing.assert_array_equal(p.data, q.data, err_msg=p.name)


@pytest.mark.parametrize("phase", ["forward", "backward"])
def test_an_exception_on_the_worker_in_training_is_raised_in_the_caller(corpus, vocab, monkeypatch, phase):
    nn._worker.submit(lambda: None).result()  # the worker's thread is running
    before = set(threading.enumerate())
    raised = []
    target, name = (model_module, "encode_texts") if phase == "forward" else (nn, "_conv1d_wide_backward")
    original = getattr(target, name)

    def fail_on_the_worker(*args):
        if threading.current_thread() is not threading.main_thread():
            raised.append(MemoryError(phase))
            raise raised[-1]
        return original(*args)

    monkeypatch.setattr(target, name, fail_on_the_worker)
    with pytest.raises(MemoryError) as caught:
        train(small_model(vocab), corpus, corpus, TrainConfig(epochs=1, batch_size=4))
    assert caught.value is raised[0] and len(raised) == 1
    assert set(threading.enumerate()) == before


def test_the_worker_survives_a_failure(corpus, vocab, monkeypatch):
    # after an exception on the worker in a step's forward and in its
    # backward, and after a caller's raise in either that cancels its queued
    # comment run or walk, the next scoring call and the next step give the
    # bits of the encoders run in turn
    model = small_model(vocab, seed=3)
    features = model.featurize_all(corpus)
    labels = [binarize(t) for t in corpus]
    want_scores = {t: v.data.tolist() for t, v in predict_in_turn(model, features).items()}
    want_grads = step_gradients(model, features, labels, predict_in_turn)

    def scores_and_gradients_in_turn():
        assert evaluation.score_features(model, features) == want_scores
        got = step_gradients(model, features, labels)
        for name, grad in want_grads.items():
            np.testing.assert_array_equal(got[name], grad, err_msg=name)

    for target, name in ((model_module, "encode_texts"), (nn, "_conv1d_wide_backward")):
        original = getattr(target, name)

        def fail_on_the_worker(*args):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError(name)
            return original(*args)

        with monkeypatch.context() as mp:
            mp.setattr(target, name, fail_on_the_worker)
            with pytest.raises(MemoryError, match=name):
                step_gradients(model, features, labels)
        scores_and_gradients_in_turn()

    # with the worker busy on other work, a raise in the caller's forward
    # pass, and one in its backward walk, surface at once: the comment run
    # and the comment walk queued behind that work are cancelled, never run
    on_worker, ahead = [], []

    def fails_in_the_caller(original):
        def run(*args):
            if threading.current_thread() is threading.main_thread():
                raise MemoryError("caller")
            on_worker.append(original.__name__)
            return original(*args)

        return run

    toposort = nn._toposort
    for target, name in ((CqaModel, "encode"), (nn, "_conv1d_wide_backward")):
        release = threading.Event()

        def busy_worker():
            ahead.append(nn._worker.submit(release.wait, 10))

        with monkeypatch.context() as mp:
            mp.setattr(target, name, fails_in_the_caller(getattr(target, name)))
            if name == "encode":
                busy_worker()
            else:  # the forward pass runs on both threads, then backward finds the worker busy
                mp.setattr(nn, "_toposort", lambda root: (busy_worker(), toposort(root))[1])
            started = time.perf_counter()
            try:
                with pytest.raises(MemoryError, match="caller"):
                    step_gradients(model, features, labels)
                assert time.perf_counter() - started < 1, name
            finally:
                release.set()
    assert [job.result() for job in ahead] == [True, True]
    nn._worker.submit(lambda: None).result()  # anything still queued has run by now
    assert on_worker == []
    scores_and_gradients_in_turn()


# ---------------------------------------------------------------------------
# snapshots and checkpoints
# ---------------------------------------------------------------------------


def test_snapshot_restore_round_trip(vocab):
    model = small_model(vocab, seed=1)
    saved = snapshot(model)
    for p in model.parameters():
        p.data += 1.0
    restore(model, saved)
    for p in model.parameters():
        np.testing.assert_array_equal(p.data, saved[p.name])


def test_restore_rejects_missing_or_mismatched_shapes(vocab):
    small = small_model(vocab, seed=1)
    big = CqaModel(vocab, m=6, d_w=4, d_feat=2, seed=1)
    with pytest.raises(CheckpointError):
        restore(big, snapshot(small))
    partial = snapshot(small)
    partial.pop("joint.weight")
    with pytest.raises(CheckpointError):
        restore(small, partial)
    # a pair-C snapshot holds the comment encoder a pair-B network lacks
    pair_c = snapshot(CqaModel(vocab, task="C", m=4, d_w=4, d_feat=2))
    with pytest.raises(CheckpointError, match="c_encoder.word_emb"):
        restore(CqaModel(vocab, task="B", m=4, d_w=4, d_feat=2), pair_c)


def test_checkpoint_round_trip(tmp_path, corpus, vocab):
    model = small_model(vocab, seed=5)
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), model)
    loaded = load_checkpoint(str(path))
    assert isinstance(loaded, CqaModel) and loaded.task is None
    assert loaded.vocab.tokens == vocab.tokens
    assert (loaded.m, loaded.d_w, loaded.d_feat) == (4, 4, 2)
    for p, q in zip(model.parameters(), loaded.parameters()):
        assert p.name == q.name
        np.testing.assert_array_equal(p.data, q.data)
    feats = model.featurize(corpus[0])
    lfeats = loaded.featurize(corpus[0])
    for task in ("A", "B", "C"):
        assert model.predict(feats)[task].data[0] == loaded.predict(lfeats)[task].data[0]


def test_loading_a_checkpoint_draws_no_initialisation(tmp_path, vocab, monkeypatch):
    model = small_model(vocab, seed=5)
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), model)

    def no_draw(*args, **kwargs):
        raise AssertionError("load_checkpoint drew an initialisation")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    loaded = load_checkpoint(str(path))
    assert [p.name for p in loaded.parameters()] == [p.name for p in model.parameters()]
    for p, q in zip(model.parameters(), loaded.parameters()):
        np.testing.assert_array_equal(p.data, q.data)
        assert q.data.dtype == p.data.dtype and q.data.flags.writeable
        np.testing.assert_array_equal(q.grad, np.zeros_like(p.data))


def test_pair_checkpoint_round_trip(tmp_path, vocab):
    model = CqaModel(vocab, task="B", m=4, d_w=4, d_feat=2, seed=5)
    path = tmp_path / "pair.ckpt"
    save_checkpoint(str(path), model)
    loaded = load_checkpoint(str(path))
    assert loaded.kind == "pair"
    assert loaded.task == "B"
    assert loaded.c_encoder is None
    for p, q in zip(model.parameters(), loaded.parameters()):
        np.testing.assert_array_equal(p.data, q.data)


def test_checkpoint_bytes_are_deterministic(tmp_path, vocab):
    model = small_model(vocab, seed=5)
    one, two, three = (tmp_path / n for n in ("a.ckpt", "b.ckpt", "c.ckpt"))
    save_checkpoint(str(one), model)
    save_checkpoint(str(two), model)
    assert one.read_bytes() == two.read_bytes()
    # save -> load -> save must also be bit-identical
    save_checkpoint(str(three), load_checkpoint(str(one)))
    assert one.read_bytes() == three.read_bytes()


def test_loading_a_checkpoint_allocates_little_more_than_its_file(tmp_path, vocab):
    # the arrays are views of the one buffer read, and no gradient buffer is made
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), CqaModel(vocab, m=100, d_w=50))
    load_checkpoint(str(path))  # imports and first-call caches are not the load's
    tracemalloc.start()
    try:
        load_checkpoint(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * path.stat().st_size


@pytest.mark.parametrize("task", [None, "A", "B", "C"])
def test_scoring_a_loaded_model_makes_no_gradient_buffer(tmp_path, corpus, vocab, task):
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), small_model(vocab, task=task))
    model = load_checkpoint(str(path))
    evaluation.score_triples(model, corpus)
    assert [p.name for p in model.parameters() if p._grad is not None] == []


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_training_steps_do_not_depend_on_when_the_gradient_buffers_are_made(corpus, vocab, dtype):
    # a fresh model's buffers are made in its first backward, the comment
    # encoder's on the worker; the copy's are made, zero-filled, before it.
    # The optimizer, which makes any buffer still missing, comes after that
    # backward in both
    config = TrainConfig()
    features = small_model(vocab).featurize_all(corpus)
    labels = [binarize(t) for t in corpus]
    runs = []
    for read_first in (False, True):
        model = small_model(vocab, seed=3, dtype=dtype)
        if read_first:
            assert not any(p.grad.any() for p in model.parameters())
        optimizer = None
        for step in range(2):
            if optimizer is not None:
                optimizer.zero_grads()
            with nn.recording():
                preds = model.predict(features, training=True, rng=np.random.default_rng(step))
                nn.scale(joint_loss(preds, labels, model.tasks), 1.0 / len(features)).backward()
            if optimizer is None:
                optimizer = nn.RmsProp(model.parameters(), lr=config.lr, rho=config.rho, eps=config.eps)
            optimizer.step()
        runs.append([(p.data, acc, p.grad) for p, acc in zip(model.parameters(), optimizer.accs)])
    for fresh, read in zip(*runs):
        for got, want in zip(fresh, read):
            assert got.dtype == want.dtype == dtype
            np.testing.assert_array_equal(got, want)


def _encoder_table(name, vocab_size=73):
    return [(f"{name}.word_emb", (vocab_size, 4)), (f"{name}.feat_emb", (2, 2)),
            (f"{name}.filters", (3, 6, 2)), (f"{name}.conv_bias", (3,))]


def _pair_table(dim):
    return [("hidden1.weight", (dim, dim)), ("hidden1.bias", (dim,)),
            ("hidden2.weight", (dim, dim)), ("hidden2.bias", (dim,)),
            ("out.weight", (1, dim)), ("out.bias", (1,))]


_MTL_TABLE = (
    _encoder_table("q_encoder") + _encoder_table("c_encoder")
    + [("rank_emb", (5, 2)), ("joint.weight", (11, 11)), ("joint.bias", (11,))]
    + [(f"head_{t}.{n}", shape) for t in "ABC"
       for n, shape in (("hidden_w", (11, 11)), ("hidden_b", (11,)), ("out_w", (1, 11)), ("out_b", (1,)))]
)

# Parameter tables and checkpoint digests of freshly built networks as
# released: a renamed parameter or a reordered initial draw changes them and
# makes every saved model unreadable or different.
CHECKPOINT_FORMAT = {
    None: (_MTL_TABLE, "71026ad6ac79d07cad1bfe399c78276e81abf2241e06107070cd6635cbc5c307"),
    "A": (_encoder_table("q_encoder") + _encoder_table("c_encoder") + _pair_table(6),
          "0b1710da40bf9b28cb3542946444c391f4c091d24336c21824571f8f083460c9"),
    "B": (_encoder_table("q_encoder") + [("rank_emb", (5, 2))] + _pair_table(8),
          "abfcaea2eb909da1d6347d3d246257eb70626f584c600c45c93f15c70e970cc8"),
    "C": (_encoder_table("q_encoder") + _encoder_table("c_encoder") + [("rank_emb", (5, 2))]
          + _pair_table(8),
          "1f08bf4a66c98023abfcafb734a5479d6f8674455a783632afe9b2bdcfa7c9ab"),
}


@pytest.mark.parametrize("task", [None, "A", "B", "C"])
def test_checkpoint_format_is_stable(tmp_path, vocab, task):
    table, digest = CHECKPOINT_FORMAT[task]
    kw = dict(m=3, d_w=4, d_feat=2, filter_width=2, seed=0)
    model = CqaModel(vocab, task=task, **kw)
    assert [(p.name, p.data.shape) for p in model.parameters()] == table
    sizes = dict(m=3, d_w=4, d_feat=2, filter_width=2, max_len=100)
    assert list(parameter_table(len(vocab), task, **sizes).items()) == table
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), model)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_parameter_table_rejects_sizes_that_are_not_positive_ints(vocab):
    sizes = dict(m=3, d_w=4, d_feat=2, filter_width=2, max_len=100)
    for key in sizes:
        for bad in (0, -1, 2.0, True, "3"):
            with pytest.raises(ValueError, match=f"^{key} must be a positive integer"):
                parameter_table(len(vocab), None, **{**sizes, key: bad})
            with pytest.raises(ValueError, match=f"^{key} must be a positive integer"):
                CqaModel(vocab, **{**sizes, key: bad})


def test_checkpoint_rejects_garbage(tmp_path, vocab):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(bad))
    model = small_model(vocab)
    good = tmp_path / "good.ckpt"
    save_checkpoint(str(good), model)
    data = good.read_bytes()
    truncated = tmp_path / "trunc.ckpt"
    truncated.write_bytes(data[: len(data) - 50])
    with pytest.raises(CheckpointError):
        load_checkpoint(str(truncated))


def edit_index(path, edit):
    """Rewrite the checkpoint at ``path`` with ``edit`` applied to its JSON index."""
    data = path.read_bytes()
    head_len = int.from_bytes(data[8:16], "little")
    index = json.loads(data[16 : 16 + head_len])
    edit(index)
    head = json.dumps(index, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path.write_bytes(data[:8] + len(head).to_bytes(8, "little") + head + data[16 + head_len :])


def test_checkpoint_arrays_must_be_stored_in_the_meta_dtype(tmp_path, vocab):
    # a float64 network's arrays under a float32 meta are refused, not cast
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), small_model(vocab, dtype=np.float64))
    edit_index(path, lambda index: index["meta"].update(dtype="float32"))
    message = f"{path}: invalid index: array 'c_encoder.conv_bias' is stored as <f8, not the meta dtype's <f4"
    with pytest.raises(CheckpointError, match=re.escape(message)):
        load_checkpoint(str(path))


def test_checkpoint_refuses_an_array_stored_twice(tmp_path, vocab, capsys):
    # a second entry named c_encoder.conv_bias that points at q_encoder's
    # bias bytes would otherwise replace the first and load the wrong bias
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), small_model(vocab))

    def repeat_bias(index):
        [q_bias] = [entry for entry in index["params"] if entry["name"] == "q_encoder.conv_bias"]
        index["params"].append({**q_bias, "name": "c_encoder.conv_bias"})

    edit_index(path, repeat_bias)
    message = f"{path}: invalid index: array 'c_encoder.conv_bias' is stored twice"
    with pytest.raises(CheckpointError, match=f"^{re.escape(message)}$"):
        load_checkpoint(str(path))
    for command in ("evaluate", "predict"):
        assert cli.main([command, "--model", str(path), "--corpus", str(tmp_path / "dev.jsonl"),
                         "--out", str(tmp_path / "p.tsv")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_a_loaded_checkpoint_has_aligned_writable_arrays_that_share_no_memory(tmp_path, vocab):
    path = tmp_path / "model.ckpt"
    model = small_model(vocab, seed=1)
    model.q_encoder.conv_bias.data[...] = np.arange(1, 5)  # biases start at zero
    save_checkpoint(str(path), model)
    data = path.read_bytes()
    head_len = int.from_bytes(data[8:16], "little")
    index = json.loads(data[16 : 16 + head_len])
    by_name = {entry["name"]: entry for entry in index["params"]}

    def loaded(edit, pad=b""):
        """The arrays of the checkpoint with ``edit`` applied to its index and
        ``pad`` put before its arrays."""
        edited = json.loads(json.dumps(index))
        edit({entry["name"]: entry for entry in edited["params"]})
        head = json.dumps(edited, sort_keys=True, separators=(",", ":")).encode("utf-8")
        path.write_bytes(data[:8] + len(head).to_bytes(8, "little") + head + pad + data[16 + head_len :])
        arrays = {p.name: p.data for p in load_checkpoint(str(path)).parameters()}
        assert all(arr.flags.writeable and arr.flags.aligned for arr in arrays.values())
        return arrays

    def shift(entries):
        for entry in entries.values():
            entry["offset"] += 1

    def alias(entries):
        entries["c_encoder.conv_bias"]["offset"] = by_name["q_encoder.conv_bias"]["offset"]

    for edit, pad in ((lambda entries: None, b""), (shift, b"\0")):  # aligned views, misaligned copies
        arrays = loaded(edit, pad)
        for p in model.parameters():
            np.testing.assert_array_equal(arrays[p.name], p.data)
    arrays = loaded(alias)  # two entries over the same bytes
    np.testing.assert_array_equal(arrays["c_encoder.conv_bias"], [1, 2, 3, 4])
    np.testing.assert_array_equal(arrays["q_encoder.conv_bias"], [1, 2, 3, 4])
    assert not np.shares_memory(arrays["c_encoder.conv_bias"], arrays["q_encoder.conv_bias"])


@pytest.fixture(scope="module")
def saved_checkpoints(tmp_path_factory, vocab):
    """The bytes of a small joint and a small pair checkpoint, and a path to
    write damaged copies to."""
    root = tmp_path_factory.mktemp("damaged")
    blobs = {}
    for kind, model in (("mtl", small_model(vocab)), ("pair", CqaModel(vocab, task="C", m=4, d_w=4, d_feat=2))):
        save_checkpoint(str(root / "model.ckpt"), model)
        blobs[kind] = (root / "model.ckpt").read_bytes()
    return blobs, root / "damaged.ckpt"


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["mtl", "pair"]), data=st.data())
def test_damaged_checkpoint_loads_or_raises_checkpoint_error(saved_checkpoints, kind, data):
    blobs, path = saved_checkpoints
    blob = blobs[kind]
    pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
    byte = data.draw(st.none() | st.integers(0, 255), label="byte")  # None truncates at pos
    path.write_bytes(blob[:pos] if byte is None else blob[:pos] + bytes([byte]) + blob[pos + 1 :])
    try:
        load_checkpoint(str(path))
    except CheckpointError:
        pass


# ---------------------------------------------------------------------------
# history report
# ---------------------------------------------------------------------------


def test_write_history_csv(tmp_path):
    history = [
        training.EpochStats(
            epoch=1,
            loss_train=1.5,
            loss_dev=1.25,
            task_loss={"C": 1.25},
            task_map={"C": 0.5},
        )
    ]
    path = tmp_path / "history.csv"
    write_history_csv(str(path), history)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,loss_train,loss_dev,lossA_dev,lossB_dev,lossC_dev,mapA_dev,mapB_dev,mapC_dev"
    cells = lines[1].split(",")
    assert cells[0] == "1"
    assert cells[1] == "1.500000"
    assert cells[3] == "nan"  # task A was not trained
    assert cells[5] == "1.250000"
    assert cells[8] == "0.500000"
