"""Span tracer that measures the layers of cqarank from outside the program.

``Tracer.install`` replaces the public functions the benchmark reaches with
timing wrappers: every module attribute bound to a wrapped function is
patched (``cli.score_triples`` as well as ``evaluation.score_triples``), and
so are the methods listed in ``METHODS``.  Operations of ``nn_core`` also wrap
the ``backward_fn`` of the tensor they return, so backward work shows up as
``<op>.bwd`` spans under ``nn_core.backward``.

Each span records its name, start, end, parent span and request id.  Spans
stay in memory until ``write`` saves them as CSV; self time is a span's
duration minus the durations of its direct children.

Per-row helpers of the evaluation loops (``binarize``, ``Triple.q_rel_key``,
``weighted_combine``, ``task_group_key``, ``task_relevance``,
``average_precision``, ``reciprocal_rank``) are not wrapped: ``tune_alpha``
calls them millions of times, and a span per call would cost more than the
helpers themselves.  Their time is part of the self time of the evaluation
function that calls them.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import sys
import time
from collections import Counter, defaultdict

from cqarank import cli, dataset, evaluation, model, nn_core, text_pipeline, training

LAYERS = ("text_pipeline", "dataset", "model", "nn_core", "training", "evaluation", "cli")

FUNCTIONS = {
    cli: ("main", "cmd_train", "cmd_evaluate", "cmd_predict"),
    training: (
        "train",
        "_dev_pass",
        "joint_loss",
        "save_checkpoint",
        "load_checkpoint",
        "write_history_csv",
        "snapshot",
        "restore",
    ),
    evaluation: (
        "score_triples",
        "build_rows",
        "evaluate_scores",
        "rank_rows",
        "tune_alpha",
        "write_predictions",
    ),
    dataset: ("load_corpus", "save_corpus", "make_batches"),
    text_pipeline: ("preprocess", "tokenize", "build_vocabulary", "overlap_indicators"),
}

OPS = (
    "embedding_lookup",
    "conv1d_wide",
    "kmax_pool",
    "dense",
    "dropout",
    "bce_loss",
    "concat",
    "add_n",
    "row_lookup",
    "scale",
)

METHODS = (
    (nn_core.Tensor, "backward", "nn_core.backward"),
    (nn_core.RmsProp, "step", "nn_core.rmsprop_step"),
    (nn_core.RmsProp, "zero_grads", "nn_core.zero_grads"),
    (text_pipeline.Vocabulary, "encode", "text_pipeline.encode"),
)

# Functions whose result length is summed: graph nodes per backward walk and
# records per corpus load.
COUNTED = {(nn_core, "_toposort"), (dataset, "load_corpus")}

NO_REQUEST = -1


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """In-memory spans plus the counters the per-layer ratios need."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self._open: list[int] = []
        self._request = NO_REQUEST
        self._next_request = 0
        self._undo: list[tuple[object, str, object]] = []
        self.counts: Counter[str] = Counter()  # items returned, for COUNTED functions
        self.featurized: dict[int, set[str]] = defaultdict(set)
        self.featurize_calls: Counter[int] = Counter()

    # -- spans ---------------------------------------------------------------

    def _open_span(self, name: str) -> list:
        record = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self._request]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close_span(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        record = self._open_span(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close_span(record)

    @contextlib.contextmanager
    def request(self, name: str):
        """Root span of one measured operation; spans inside it share its id."""
        self._request = self._next_request
        self._next_request += 1
        record = self._open_span(name)
        try:
            yield
        finally:
            self._close_span(record)
            self._request = NO_REQUEST

    # -- patching ------------------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        for module in list(sys.modules.values()):
            if module is None or not getattr(module, "__name__", "").startswith("cqarank"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _wrap_function(self, module, attr: str) -> None:
        original = getattr(module, attr)
        name = f"{_short(module)}.{attr.lstrip('_')}"
        if (module, attr) in COUNTED:
            def wrapper(*args, **kwargs):
                result = self.call(name, original, *args, **kwargs)
                self.counts[name] += len(result)
                return result
        else:
            def wrapper(*args, **kwargs):
                return self.call(name, original, *args, **kwargs)
        self._replace(original, functools.wraps(original)(wrapper))

    def _wrap_op(self, attr: str) -> None:
        original = getattr(nn_core, attr)
        name = f"nn_core.{attr}"
        bwd_name = f"{name}.bwd"
        call = self.call

        def wrapper(*args, **kwargs):
            out = call(name, original, *args, **kwargs)
            backward_fn = out.backward_fn
            # dropout at inference returns its input unchanged
            if backward_fn is not None and not any(out is a for a in args):
                out.backward_fn = lambda grad: call(bwd_name, backward_fn, grad)
            return out

        self._replace(original, functools.wraps(original)(wrapper))

    def _patch(self, cls, attr: str, wrapper) -> None:
        original = getattr(cls, attr)
        self._undo.append((cls, attr, original))
        setattr(cls, attr, functools.wraps(original)(wrapper))

    def _wrap_method(self, cls, attr: str, name: str) -> None:
        original = getattr(cls, attr)
        self._patch(cls, attr, lambda *args, **kwargs: self.call(name, original, *args, **kwargs))

    def _wrap_model(self) -> None:
        featurize = model.MtlModel.featurize
        predict = model.MtlModel.predict

        def featurize_wrapper(obj, triple):
            self.featurized[self._request].add(triple.id)
            self.featurize_calls[self._request] += 1
            return self.call("model.featurize", featurize, obj, triple)

        def predict_wrapper(obj, features, training=False, *args, **kwargs):
            name = "model.forward_train" if training else "model.forward_infer"
            return self.call(name, predict, obj, features, training, *args, **kwargs)

        self._patch(model.MtlModel, "featurize", featurize_wrapper)
        self._patch(model.MtlModel, "predict", predict_wrapper)

    def install(self) -> None:
        for module, attrs in FUNCTIONS.items():
            for attr in attrs:
                self._wrap_function(module, attr)
        self._wrap_function(nn_core, "_toposort")
        for attr in OPS:
            self._wrap_op(attr)
        for cls, attr, name in METHODS:
            self._wrap_method(cls, attr, name)
        self._wrap_model()

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds (all requests)."""
        stats: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span, self_s in zip(self.spans, self.self_times()):
            entry = stats[span[0]]
            entry["calls"] += 1
            entry["total_s"] += span[2] - span[1]
            entry["self_s"] += self_s
        return dict(stats)

    def layer_self_seconds(self) -> tuple[dict[str, float], float]:
        """Self seconds per layer over measured requests, and the total
        duration of their root spans."""
        per_layer: Counter[str] = Counter()
        roots = 0.0
        for span, self_s in zip(self.spans, self.self_times()):
            if span[4] == NO_REQUEST:
                continue
            per_layer[span[0].split(".", 1)[0]] += self_s
            if span[3] < 0:
                roots += span[2] - span[1]
        return dict(per_layer), roots

    def featurize_useful(self) -> tuple[int, int]:
        """Distinct triples featurized (counted once per request) and
        featurize calls, over measured requests."""
        useful = sum(len(ids) for r, ids in self.featurized.items() if r != NO_REQUEST)
        calls = sum(n for r, n in self.featurize_calls.items() if r != NO_REQUEST)
        return useful, calls

    def write(self, path: str) -> None:
        """Spans as CSV, times in microseconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["name", "start_us", "end_us", "parent", "request"])
            for name, start, end, parent, request in self.spans:
                out.writerow([name, round((start - t0) * 1e6, 1), round((end - t0) * 1e6, 1), parent, request])
