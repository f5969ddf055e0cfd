"""The three benchmark workloads.

``train_mtl``   ``cqarank train`` of the multitask model at paper sizes for a
                fixed number of epochs (the only path through backward and
                rmsprop; it also re-featurizes the dev set every epoch).
``score_bulk``  ``cqarank predict --task C`` then ``cqarank evaluate --tasks
                ABC --tune-alpha``: corpus-scale inference and evaluation.
``rank_online`` one client in a closed loop; each request scores the 10-100
                candidates of one new question and ranks them for task C.

A workload sets up its inputs from the seed, then runs ``step`` until the
time is up.  Every operation is timed from outside the program, between
blocks of a reference kernel that give the host's speed around it (see
``pace.py``); with a tracer, each one is a request whose spans the tracer
groups.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from cqarank import cli, dataset, evaluation, model, nn_core, text_pipeline, training

import checks
import corpus
from pace import Pace

PAPER_SIZES = dict(m=100, d_w=50, d_feat=5, filter_width=5, max_len=100)
BATCH_SIZE = 32


@dataclass(frozen=True)
class Sizes:
    """Corpus sizes in groups of 10-100 candidates (55 on average)."""

    train_groups: int
    dev_groups: int
    epochs: int
    bulk_groups: int
    vocab_groups: int
    online_groups: int
    warmup_queries: int


DEFAULT_SIZES = Sizes(
    train_groups=2, dev_groups=1, epochs=2, bulk_groups=6, vocab_groups=20,
    online_groups=20, warmup_queries=5,
)
TINY_SIZES = Sizes(
    train_groups=1, dev_groups=1, epochs=2, bulk_groups=2, vocab_groups=1,
    online_groups=2, warmup_queries=1,
)


@dataclass
class Op:
    """One timed operation: a CLI command or an online request."""

    kind: str
    wall_s: float
    triples: int
    ok: bool
    output: object = None
    start_s: float = 0.0


@dataclass
class Phase:
    """The operations of one measuring period and its length."""

    ops: list[Op] = field(default_factory=list)
    elapsed_s: float = 0.0

    def of(self, kind: str) -> list[Op]:
        return [op for op in self.ops if op.kind == kind]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main`` with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def corpus_vocabulary(triples) -> text_pipeline.Vocabulary:
    """The vocabulary ``cqarank train`` builds from a training corpus."""
    texts = []
    for t in triples:
        texts.append(text_pipeline.preprocess(t.q_new_subject, t.q_new_body))
        texts.append(text_pipeline.preprocess(t.q_rel_subject, t.q_rel_body))
        texts.append(text_pipeline.preprocess(None, t.c_rel))
    return text_pipeline.build_vocabulary(texts)


def dev_loss_of(model_, triples) -> float:
    """Summed per-task mean BCE over ``triples``, as training reports it."""
    scores = evaluation.score_triples(model_, triples)
    total = 0.0
    for task, values in scores.items():
        loss = 0.0
        for t, p in zip(triples, values):
            y = evaluation.task_relevance(t, task)
            pc = min(max(p, nn_core.BCE_CLAMP), 1.0 - nn_core.BCE_CLAMP)
            loss += -(y * math.log(pc) + (1 - y) * math.log(1.0 - pc))
        total += loss / len(triples)
    return total


def _median(values) -> float:
    return float(statistics.median(values))


def _percentile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


class Workload:
    name = ""

    def __init__(self, seed: int, sizes: Sizes, workdir: str):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.tracer = None
        self.pace = Pace()

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def scaled(self, op: Op) -> float:
        """The operation's wall time at the reference host speed."""
        return self.pace.scaled(op.wall_s, op.start_s)

    def timed(self, kind: str, triples: int, fn: Callable[[], tuple[bool, object]]) -> Op:
        """Run one operation; a tracer makes it a request of its own."""
        self.pace.sample()
        scope = self.tracer.request(f"bench.{kind}") if self.tracer else contextlib.nullcontext()
        with scope:
            start = time.perf_counter()
            try:
                ok, output = fn()
            except Exception:  # an operation that raises counts as failed
                traceback.print_exc(file=sys.stderr)
                ok, output = False, None
            wall = time.perf_counter() - start
        return Op(kind, wall, triples, ok, output, start)

    def measure(self, seconds: float, tracer=None) -> list[Phase]:
        """Run steps until ``seconds`` have passed.  With a tracer, steps
        alternate between untraced and traced, so that both phases see the
        same machine conditions; returns [untraced] or [untraced, traced]."""
        phases = [Phase()] if tracer is None else [Phase(), Phase()]
        deadline = time.perf_counter() + seconds
        i = 0
        while not all(p.ops for p in phases) or time.perf_counter() < deadline:
            phase = phases[i % len(phases)]
            if phase is not phases[0]:
                tracer.install()
                self.tracer = tracer
            start = time.perf_counter()
            try:
                phase.ops.extend(self.step())
            finally:
                phase.elapsed_s += time.perf_counter() - start
                if self.tracer is not None:
                    tracer.uninstall()
                    self.tracer = None
            i += 1
        self.pace.sample(force=True)
        return phases

    # Subclasses define setup(), shape(), step(), check(phases) returning
    # extra metrics, and metrics(phase) returning (end-to-end, named) metrics.


class TrainMtl(Workload):
    name = "train_mtl"

    def setup(self) -> None:
        self.train = corpus.generate(self.sizes.train_groups, "t", self.seed)
        self.dev = corpus.generate(self.sizes.dev_groups, "d", self.seed)
        dataset.save_corpus(self.path("train.jsonl"), self.train)
        dataset.save_corpus(self.path("dev.jsonl"), self.dev)

    def shape(self) -> dict:
        shape = corpus.input_shape(self.train + self.dev, corpus_vocabulary(self.train))
        shape["train_triples"] = len(self.train)
        shape["dev_triples"] = len(self.dev)
        shape["epochs"] = self.sizes.epochs
        return shape

    def argv(self) -> list[str]:
        epochs = str(self.sizes.epochs)
        argv = [
            "train", "--corpus", self.path("train.jsonl"), "--dev", self.path("dev.jsonl"),
            "--out-dir", self.path("run"), "--model", "mtl", "--epochs", epochs,
            "--patience", epochs, "--batch-size", str(BATCH_SIZE), "--seed", str(self.seed),
        ]
        for key, value in PAPER_SIZES.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        return argv

    def step(self) -> list[Op]:
        def command():
            code, out, _ = run_cli(self.argv())
            return code == 0, out

        op = self.timed("train", self.sizes.epochs * len(self.train), command)
        if op.ok:
            op.output = checks.read_history(self.path("run/history.csv"))
        return [op]

    def check(self, phases: list[Phase]) -> dict:
        histories = [op.output for p in phases for op in p.of("train") if op.ok]
        if not histories:
            raise checks.CheckFailed("no train command succeeded")
        losses = [checks.check_history(rows, self.sizes.epochs) for rows in histories]
        checks.check_repeatable(losses, "final dev loss")
        try:
            reloaded = training.load_checkpoint(self.path("run/model.ckpt"))
        except (training.CheckpointError, OSError, KeyError, ValueError) as exc:
            raise checks.CheckFailed(f"checkpoint does not reload: {exc}") from None
        checks.check_reloaded(reloaded, {"kind": "mtl", **PAPER_SIZES}, self.dev[0])
        best = min(float(r["loss_dev"]) for r in histories[-1])
        again = dev_loss_of(reloaded, self.dev)
        if abs(again - best) > 1e-5:
            raise checks.CheckFailed(f"reloaded checkpoint gives dev loss {again:.6f}, best epoch {best:.6f}")
        return {"dev_loss": (losses[-1], "nat")}

    def metrics(self, phase: Phase) -> tuple[dict, dict]:
        ops = [op for op in phase.of("train") if op.ok]
        typical = _median([self.scaled(op) for op in ops])
        raw = [op.wall_s for op in ops]
        triples = ops[0].triples
        common = {"triples_per_s": (triples / typical, "1/s"), "op_ms": (typical * 1e3, "ms")}
        named = {
            "train_triples_per_s": (triples / typical, "1/s"),
            "train_cmd_s": (typical, "s"),
            "train_triples_per_s_raw_median": (triples / _median(raw), "1/s"),
            "train_cmd_s_raw_min": (min(raw), "s"),
            "train_commands": (len(ops), "count"),
        }
        return common, named


class _Scoring(Workload):
    """Shared set-up: a scoring corpus plus a checkpoint at paper sizes whose
    vocabulary comes from a separate corpus, so the scored texts have OOV
    tokens.  The weights are the seeded initialisation: inference costs the
    same for any weights, and no training time enters set-up."""

    def setup(self) -> None:
        self.vocab_corpus = corpus.generate(self.sizes.vocab_groups, "v", self.seed)
        self.triples = corpus.generate(self.corpus_groups, "s", self.seed)
        dataset.save_corpus(self.path("score.jsonl"), self.triples)
        self.vocab = corpus_vocabulary(self.vocab_corpus)
        net = model.MtlModel(self.vocab, seed=self.seed, **PAPER_SIZES)
        training.save_checkpoint(self.path("model.ckpt"), net)

    def shape(self) -> dict:
        return corpus.input_shape(self.triples, self.vocab)


class ScoreBulk(_Scoring):
    name = "score_bulk"

    @property
    def corpus_groups(self) -> int:
        return self.sizes.bulk_groups

    def step(self) -> list[Op]:
        ckpt, data = self.path("model.ckpt"), self.path("score.jsonl")

        def predict():
            code, out, _ = run_cli(
                ["predict", "--model", ckpt, "--corpus", data, "--task", "C", "--out", self.path("predict.tsv")]
            )
            return code == 0, out

        def evaluate():
            code, out, _ = run_cli(
                ["evaluate", "--model", ckpt, "--corpus", data, "--tasks", "ABC", "--tune-alpha",
                 "--out", self.path("eval.tsv")]
            )
            return code == 0, out

        n = len(self.triples)
        return [self.timed("predict", n, predict), self.timed("evaluate", n, evaluate)]

    def check(self, phases: list[Phase]) -> dict:
        found = {}
        for p in phases:
            for op in p.of("evaluate"):
                if op.ok:
                    found = checks.check_evaluate_output(op.output, self.triples, "ABC")
        if not found:
            raise checks.CheckFailed("no evaluate command succeeded")
        predicted = checks.read_predictions(self.path("predict.tsv"))
        checks.check_predictions(predicted, self.triples, "C")
        for task in "ABC":
            rows = checks.read_predictions(self.path(f"eval.{task}.tsv"))
            checks.check_predictions(rows, self.triples, task)
            if task == "C":
                checks.check_same_scores(predicted, rows)
        return {f"map_{t}": (r["map"], "%") for t, r in found.items()}

    def metrics(self, phase: Phase) -> tuple[dict, dict]:
        predicts = [op for op in phase.of("predict") if op.ok]
        evaluates = [op for op in phase.of("evaluate") if op.ok]
        predict_s = _median([self.scaled(op) for op in predicts])
        evaluate_s = _median([self.scaled(op) for op in evaluates])
        n = len(self.triples)
        common = {"triples_per_s": (n / predict_s, "1/s"), "op_ms": (evaluate_s * 1e3, "ms")}
        named = {
            "score_triples_per_s": (n / predict_s, "1/s"),
            "score_triples_per_s_raw_median": (n / _median([op.wall_s for op in predicts]), "1/s"),
            "evaluate_cmd_s": (evaluate_s, "s"),
            "evaluate_cmd_s_raw_median": (_median([op.wall_s for op in evaluates]), "s"),
            "evaluate_cmd_s_raw_min": (min(op.wall_s for op in evaluates), "s"),
            "evaluate_commands": (len(evaluates), "count"),
        }
        return common, named


class RankOnline(_Scoring):
    """Closed loop, one client: the next request is sent when the previous
    one has been answered.  Requests cycle through the candidate groups in
    seeded random orders."""

    name = "rank_online"

    @property
    def corpus_groups(self) -> int:
        return self.sizes.online_groups

    def setup(self) -> None:
        super().setup()
        self.model = training.load_checkpoint(self.path("model.ckpt"))
        loaded = dataset.load_corpus(self.path("score.jsonl"))
        groups: dict[str, list] = {}
        for t in loaded:
            groups.setdefault(t.group, []).append(t)
        self.groups = list(groups.values())
        self._rng = np.random.default_rng([self.seed, 7])
        self._queue: list[int] = []

    def measure(self, seconds: float, tracer=None) -> list[Phase]:
        for _ in range(self.sizes.warmup_queries):
            self.query(self._next_group())
        return super().measure(seconds, tracer)

    def _next_group(self) -> list:
        if not self._queue:
            self._queue = list(self._rng.permutation(len(self.groups)))
        return self.groups[self._queue.pop()]

    def query(self, candidates: list):
        scores = evaluation.score_triples(self.model, candidates)["C"]
        rows = evaluation.build_rows(candidates, scores, "C")
        ranked = evaluation.rank_rows(rows)[candidates[0].group]
        return [t.id for t in candidates], scores, [r[1] for r in ranked]

    def step(self) -> list[Op]:
        candidates = self._next_group()
        return [self.timed("query", len(candidates), lambda: (True, self.query(candidates)))]

    def check(self, phases: list[Phase]) -> dict:
        responses = [op.output for p in phases for op in p.of("query") if op.ok]
        if not responses:
            raise checks.CheckFailed("no request succeeded")
        everything = [t for group in self.groups for t in group]
        bulk = evaluation.score_triples(self.model, everything)["C"]
        checks.check_online(responses, {t.id: s for t, s in zip(everything, bulk)})
        return {}

    def metrics(self, phase: Phase) -> tuple[dict, dict]:
        """Each group is a request type whose latency is the median of its
        visits, scaled to the reference host speed; the end-to-end
        figures are the median of those latencies and the candidates per
        second of one pass over every group at them.  The plain closed-loop
        p50, p95 and rate over all requests are reported beside them."""
        ops = [op for op in phase.of("query") if op.ok]
        walls_ms = [op.wall_s * 1e3 for op in ops]
        by_group: dict[str, list[Op]] = {}
        for op in ops:
            by_group.setdefault(op.output[0][0], []).append(op)
        group_ms = [_median([self.scaled(op) for op in g]) * 1e3 for g in by_group.values()]
        rate = sum(g[0].triples for g in by_group.values()) / (sum(group_ms) / 1e3)
        p50 = _median(group_ms)
        common = {"triples_per_s": (rate, "1/s"), "op_ms": (p50, "ms")}
        named = {
            "query_ms_group_p50": (p50, "ms"),
            "query_ms_p50": (_median(walls_ms), "ms"),
            "query_ms_p95": (_percentile(walls_ms, 0.95), "ms"),
            "queries_per_s": (len(ops) / phase.elapsed_s, "1/s"),
            "queries": (len(ops), "count"),
            "fewest_visits_per_group": (min(len(g) for g in by_group.values()), "count"),
        }
        return common, named


WORKLOADS = {cls.name: cls for cls in (TrainMtl, ScoreBulk, RankOnline)}
