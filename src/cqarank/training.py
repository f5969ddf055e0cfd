"""Training loop with rmsprop, dev-loss early stopping (joint or per-task),
parameter snapshots, per-epoch history reporting, and a deterministic binary
checkpoint format.

Early stopping counts epochs since the dev loss last improved (strictly
decreased) and halts once the count reaches the patience, so the stop epoch is
always ``last_improvement + patience``.  Joint mode watches the summed dev
loss and keeps one snapshot; per-task mode watches each task's dev loss
separately, keeps one snapshot per task, and halts when every task has
stalled.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import nn_core as nn
from .dataset import TASKS, Triple, atomic_write, binarize, check_tasks, make_batches
from .evaluation import build_rows, evaluate_scores, score_features
from .model import SIZES, CqaModel, parameter_table
from .text_pipeline import Vocabulary


class CheckpointError(ValueError):
    """Raised for malformed checkpoint files or dimension mismatches."""


# Early-stopping modes: watch the summed dev loss, or each task's dev loss.
STOPPING = ("global", "per_task")


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    lr: float = 0.001
    rho: float = 0.9
    eps: float = 1e-6
    dropout_input: float = 0.4
    dropout_hidden: float = 0.7
    patience: int = 10
    stopping: str = "global"  # one of STOPPING
    seed: int = 0
    tasks: tuple[str, ...] = TASKS

    def __post_init__(self):
        # lr and eps act on float32 arrays, where 1e-46 is 0 and 1e300 is inf
        with np.errstate(over="ignore"):
            lr, eps = np.float32(self.lr), np.float32(self.eps)
        for name, ok, rule in (
            ("stopping", self.stopping in STOPPING, " or ".join(map(repr, STOPPING))),
            ("epochs", self.epochs >= 1, ">= 1"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("patience", self.patience >= 1, ">= 1"),
            ("lr", 0 < lr < math.inf, "positive and finite in float32"),
            ("rho", 0 <= self.rho < 1, "in [0, 1)"),
            ("eps", 0 < eps < math.inf, "positive and finite in float32"),
            ("dropout_input", 0 <= self.dropout_input < 1, "in [0, 1)"),
            ("dropout_hidden", 0 <= self.dropout_hidden < 1, "in [0, 1)"),
            ("seed", self.seed >= 0, ">= 0"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")
        check_tasks(self.tasks)


def joint_loss(preds: dict[str, nn.Tensor], labels: Sequence[dict[str, int]], tasks: Sequence[str]) -> nn.Tensor:
    """Sum of the per-task cross-entropies for the active tasks over a batch
    of predictions and its :func:`~cqarank.dataset.binarize` labels, one
    dict per triple."""
    return nn.add_n([nn.bce_loss(preds[t], [y[t] for y in labels]) for t in tasks])


class EarlyStopper:
    """Stops once ``patience`` consecutive epochs pass without the watched
    value strictly improving."""

    def __init__(self, patience: int):
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        self.patience = patience
        self.best: float = math.inf
        self.best_epoch: int = 0
        self.counter: int = 0

    def update(self, value: float, epoch: int) -> bool:
        """Record this epoch's value; returns True when it improved."""
        if value < self.best:
            self.best = value
            self.best_epoch = epoch
            self.counter = 0
            return True
        self.counter += 1
        return False

    @property
    def should_stop(self) -> bool:
        return self.counter >= self.patience


@dataclass
class EpochStats:
    epoch: int
    loss_train: float
    loss_dev: float
    task_loss: dict[str, float]
    task_map: dict[str, float]


@dataclass
class TrainReport:
    history: list[EpochStats] = field(default_factory=list)
    stop_epoch: int = 0
    stopped_early: bool = False
    best_epoch: dict[str, int] = field(default_factory=dict)  # per_task; key "joint" in global mode
    snapshots: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)


def snapshot(model) -> dict[str, np.ndarray]:
    """Copy every parameter array, keyed by parameter name."""
    return {p.name: p.data.copy() for p in model.parameters()}


def _mismatch(arrays: dict[str, np.ndarray], table: dict[str, tuple[int, ...]]) -> str:
    """What keeps ``arrays`` from being exactly the parameters of ``table``
    in their shapes; empty when nothing does."""
    problems = {
        "extra arrays": sorted(set(arrays) - set(table)),
        "missing parameters": [name for name in table if name not in arrays],
        "wrong shapes": [f"{name} is {list(arrays[name].shape)}, not {list(shape)}"
                          for name, shape in table.items() if name in arrays and arrays[name].shape != shape],
    }
    return "; ".join(f"{what}: {', '.join(names)}" for what, names in problems.items() if names)


def restore(model, snap: dict[str, np.ndarray]) -> None:
    """Load a snapshot of exactly the model's parameters back into it in place."""
    problem = _mismatch(snap, {p.name: p.data.shape for p in model.parameters()})
    if problem:
        raise CheckpointError(problem)
    for p in model.parameters():
        np.copyto(p.data, snap[p.name])


def _dev_pass(
    model, dev: tuple[Sequence, dict], tasks: Sequence[str], worker: ThreadPoolExecutor
) -> tuple[dict[str, float], dict[str, float]]:
    """One inference pass over the dev set, given as its features and each
    task's :class:`RankTable`, whose scores it replaces: each active task's
    mean loss and its MAP percentage.  The MAP is nan when no dev group has a
    positive, and when a score is not finite, which makes the loss nan too.
    ``worker`` is the run's scoring thread (see :func:`score_features`)."""
    features, tables = dev
    scores = score_features(model, features, tasks, worker)
    task_loss = {}
    task_map = {}
    for t in tasks:
        table = tables[t]
        values = np.array(scores[t], dtype=np.float64)
        task_loss[t] = float(np.mean(nn.clamped_bce(values, table.rel.astype(np.float64))))
        ranked = table.rel.any() and np.isfinite(values).all()
        task_map[t] = evaluate_scores(table.with_scores(values)).map if ranked else math.nan
    return task_loss, task_map


def train(
    model,
    train_data: Sequence[Triple],
    dev_data: Sequence[Triple],
    config: TrainConfig,
    log: Optional[Callable[[EpochStats], None]] = None,
) -> TrainReport:
    """Fit the model with rmsprop and early stopping, passing each epoch's
    record to ``log``; on return the model holds the best joint snapshot
    (global mode) or the last epoch's weights (per-task mode, with the
    per-task snapshots in the report)."""
    tasks = [t for t in config.tasks if t in model.tasks]
    if not tasks:
        raise ValueError(f"model scores {model.tasks}, none of the configured tasks {config.tasks}")
    if not train_data:
        raise ValueError("empty training set")
    if not dev_data:
        raise ValueError("empty dev set")

    optimizer = nn.RmsProp(model.parameters(), lr=config.lr, rho=config.rho, eps=config.eps)
    report = TrainReport()
    watched = ["joint"] if config.stopping == "global" else tasks
    stoppers = {key: EarlyStopper(config.patience) for key in watched}

    features = model.featurize_all(train_data)
    gold = [binarize(t) for t in train_data]
    # the dev rows' query keys and labels are fixed; each dev pass fills in the scores
    dev_tables = {t: build_rows(dev_data, [0.0] * len(dev_data), t) for t in tasks}
    dev_set = (model.featurize_all(dev_data), dev_tables)

    epoch = 0
    # one worker thread for the whole run: it encodes each batch's comments,
    # forward and backward, and scores beside the caller in the dev passes;
    # starting one per dev pass would cost fresh page faults every epoch
    with ThreadPoolExecutor(1) as worker:
        for epoch in range(1, config.epochs + 1):
            order = make_batches(list(range(len(train_data))), config.batch_size, seed=[config.seed, epoch, 0])
            drop_rng = np.random.default_rng([config.seed, epoch, 1])
            loss_total = 0.0
            for batch_no, batch in enumerate(order):
                optimizer.zero_grads()
                with nn.recording():
                    preds = model.predict(
                        [features[i] for i in batch],
                        training=True,
                        rng=drop_rng,
                        dropout_input=config.dropout_input,
                        dropout_hidden=config.dropout_hidden,
                        worker=worker,
                    )
                    batch_loss = nn.scale(joint_loss(preds, [gold[i] for i in batch], tasks), 1.0 / len(batch))
                    value = float(batch_loss.data[0])
                    if not math.isfinite(value):
                        raise nn.NumericError(
                            f"non-finite training loss {value} in epoch {epoch}, batch {batch_no}"
                        )
                    batch_loss.backward()
                optimizer.step()
                loss_total += value * len(batch)
            loss_train = loss_total / len(train_data)

            task_loss, task_map = _dev_pass(model, dev_set, tasks, worker)
            stats = EpochStats(epoch, loss_train, sum(task_loss.values()), task_loss, task_map)
            if not math.isfinite(stats.loss_dev):
                raise nn.NumericError(f"non-finite dev loss {stats.loss_dev} in epoch {epoch}")
            report.history.append(stats)
            if log is not None:
                log(stats)

            dev_loss = {"joint": stats.loss_dev, **task_loss}
            for key, stopper in stoppers.items():
                if stopper.update(dev_loss[key], epoch):
                    report.snapshots[key] = snapshot(model)
            if all(s.should_stop for s in stoppers.values()):
                report.stopped_early = True
                break

    report.stop_epoch = epoch
    report.best_epoch = {k: s.best_epoch for k, s in stoppers.items()}
    if "joint" in report.snapshots:
        restore(model, report.snapshots["joint"])
    return report


_CSV_HEADER = "epoch,loss_train,loss_dev,lossA_dev,lossB_dev,lossC_dev,mapA_dev,mapB_dev,mapC_dev"


def write_history_csv(path: str, history: Sequence[EpochStats]) -> None:
    """Per-epoch training curve; tasks the run did not train are written as
    nan.  Atomic."""
    with atomic_write(path) as fh:
        fh.write(_CSV_HEADER + "\n")
        for row in history:
            cells = [str(row.epoch)]
            cells += [f"{row.loss_train:.6f}", f"{row.loss_dev:.6f}"]
            cells += [f"{row.task_loss.get(t, math.nan):.6f}" for t in TASKS]
            cells += [f"{row.task_map.get(t, math.nan):.6f}" for t in TASKS]
            fh.write(",".join(cells) + "\n")


_MAGIC = b"CQRK0001"


def _meta_for(model) -> dict:
    meta = {"kind": model.kind, "dtype": model.dtype.name, **{k: getattr(model, k) for k in SIZES}}
    if model.task is not None:
        meta["task"] = model.task
    return meta


def save_checkpoint(path: str, model) -> None:
    """Serialize the model to a deterministic binary container: magic, JSON
    index (meta, vocab, parameter table), then raw little-endian arrays in
    sorted name order.  Saving the same weights twice yields identical bytes.
    Each array's buffer is written as it is, not copied."""
    stored = model.dtype.newbyteorder("<")
    params = sorted(model.parameters(), key=lambda p: p.name)
    arrays = [np.ascontiguousarray(p.data, stored) for p in params]
    entries = []
    offset = 0
    for p, arr in zip(params, arrays):
        entries.append(
            {
                "name": p.name,
                "dtype": stored.str,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": arr.nbytes,
            }
        )
        offset += arr.nbytes
    index = {
        "meta": _meta_for(model),
        "params": entries,
        "vocab": list(model.vocab.tokens[2:]),
    }
    head = json.dumps(index, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(_MAGIC + len(head).to_bytes(8, "little") + head)
        for arr in arrays:
            fh.write(arr)


def _read_array(payload: np.ndarray, entry: dict, stored: np.dtype) -> np.ndarray:
    name, dtype, shape = entry["name"], np.dtype(entry["dtype"]), tuple(entry["shape"])
    offset, nbytes = entry["offset"], entry["nbytes"]
    if not isinstance(name, str) or not all(type(v) is int and v >= 0 for v in (offset, nbytes, *shape)):
        raise ValueError(f"array entry {name!r} needs a name and non-negative integer sizes")
    if dtype != stored:
        raise ValueError(f"array {name!r} is stored as {dtype.str}, not the meta dtype's {stored.str}")
    if math.prod(shape) * dtype.itemsize != nbytes:
        raise ValueError(f"array {name!r}: shape {list(shape)} of {dtype} does not fill {nbytes} bytes")
    if offset + nbytes > len(payload):
        raise ValueError(f"truncated array {name!r}")
    view = np.frombuffer(payload, dtype, count=math.prod(shape), offset=offset).reshape(shape)
    return view if view.flags.aligned else view.copy()


def _read_checkpoint(path: str) -> tuple[dict, Vocabulary, dict[str, np.ndarray]]:
    """Parse and validate a checkpoint: the keyword arguments that rebuild
    its network, its vocabulary, and its arrays, which must be exactly the
    network's parameter table.  The arrays after the index are read once,
    into one buffer, and each array is a writable view of its bytes there
    (a copy where the file's offset leaves it misaligned, or where its bytes
    overlap another array's)."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
        head_len = int.from_bytes(fh.read(8), "little")
        head = fh.read(min(head_len, size))
        payload = np.empty(max(size - fh.tell(), 0), np.uint8)  # not zero-filled: the read fills it
        payload = payload[: fh.readinto(payload)]
    try:
        index = json.loads(head.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt index: {exc}") from exc
    try:
        meta, entries, tokens = index["meta"], index["params"], index["vocab"]
        if not (isinstance(meta, dict) and isinstance(entries, list) and isinstance(tokens, list)):
            raise ValueError("meta must be an object, params and vocab lists")
        if not set(map(type, tokens)) <= {str}:  # json gives no str subclass
            raise ValueError("vocab entries must be strings")
        if meta["kind"] not in ("mtl", "pair"):
            raise ValueError(f"unknown model kind {meta['kind']!r}")
        if meta["kind"] == "pair" and meta["task"] not in TASKS:
            raise ValueError(f"unknown pair task {meta['task']!r}")
        if (dtype := np.dtype(meta["dtype"])).kind != "f":
            raise ValueError(f"meta dtype {meta['dtype']!r} is not a float type")
        vocab = Vocabulary(tokens)
        spec = {"task": meta["task"] if meta["kind"] == "pair" else None, **{k: meta[k] for k in SIZES}}
        table = parameter_table(len(vocab), **spec)
        params = {entry["name"]: _read_array(payload, entry, dtype.newbyteorder("<")) for entry in entries}
        if len(params) < len(entries):
            names = [entry["name"] for entry in entries]
            raise ValueError(f"array {next(n for n in params if names.count(n) > 1)!r} is stored twice")
    except KeyError as exc:
        raise CheckpointError(f"{path}: index lacks {exc}") from None
    except (TypeError, ValueError, SyntaxError) as exc:  # np.dtype(",f4") raises SyntaxError
        raise CheckpointError(f"{path}: invalid index: {exc}") from None
    problem = _mismatch(params, table)
    if problem:
        raise CheckpointError(f"{path}: {problem}")
    # arrays whose bytes overlap must not share memory once loaded
    end = 0
    for entry in sorted(entries, key=lambda entry: entry["offset"]):
        if entry["offset"] < end:
            params[entry["name"]] = params[entry["name"]].copy()
        end = max(end, entry["offset"] + entry["nbytes"])
    non_finite = [name for name, arr in params.items() if not np.isfinite(arr).all()]
    if non_finite:
        raise CheckpointError(f"{path}: non-finite values in {', '.join(non_finite)}")
    return {**spec, "dtype": dtype}, vocab, params


def load_checkpoint(path: str) -> CqaModel:
    """Rebuild the model (architecture, vocabulary, weights) from a file
    written by :func:`save_checkpoint`.  The file is checked against the
    parameter table of the network its meta describes before any network is
    built: an extra or repeated array, a missing parameter or a shape that
    differs raises :class:`CheckpointError` naming the file and the arrays."""
    spec, vocab, params = _read_checkpoint(path)
    model = CqaModel.__new__(CqaModel)  # built around the arrays read: no initial draw
    model._build(vocab, params, **spec)
    return model
