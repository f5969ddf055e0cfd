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
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import nn_core as nn
from .dataset import BinaryLabels, Triple, atomic_write, binarize, make_batches
from .evaluation import build_rows, evaluate_scores, score_features
from .model import SIZES, TASKS, CqaModel
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
        if self.stopping not in STOPPING:
            modes = " or ".join(map(repr, STOPPING))
            raise ValueError(f"stopping must be {modes}, got {self.stopping!r}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        unknown = set(self.tasks) - set(TASKS)
        if unknown:
            raise ValueError(f"unknown tasks: {sorted(unknown)}")
        if not self.tasks:
            raise ValueError("at least one task required")


def joint_loss(
    preds: dict[str, nn.Tensor],
    labels: Union[BinaryLabels, Sequence[BinaryLabels]],
    tasks: Sequence[str],
) -> nn.Tensor:
    """Sum of the per-task cross-entropies for the active tasks over a batch
    of predictions and its labels; one ``BinaryLabels`` is a batch of one."""
    batch = [labels] if isinstance(labels, BinaryLabels) else labels
    gold = {"A": [y.yA for y in batch], "B": [y.yB for y in batch], "C": [y.yC for y in batch]}
    return nn.add_n([nn.bce_loss(preds[t], gold[t]) for t in tasks])


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
    snap = {}
    for p in model.parameters():
        if p.name in snap:
            raise ValueError(f"duplicate parameter name {p.name!r}")
        snap[p.name] = p.data.copy()
    return snap


def restore(model, snap: dict[str, np.ndarray]) -> None:
    """Load a snapshot of exactly the model's parameters back into it in place."""
    extra = sorted(set(snap) - {p.name for p in model.parameters()})
    if extra:
        raise CheckpointError(f"arrays {', '.join(extra)} are not parameters of the network")
    for p in model.parameters():
        if p.name not in snap:
            raise CheckpointError(f"snapshot missing parameter {p.name!r}")
        if snap[p.name].shape != p.data.shape:
            raise CheckpointError(
                f"parameter {p.name!r}: snapshot shape {snap[p.name].shape} "
                f"!= model shape {p.data.shape}"
            )
        np.copyto(p.data, snap[p.name])


@dataclass
class DevStats:
    total: float
    task_loss: dict[str, float]
    task_map: dict[str, float]


def _dev_pass(model, dev: tuple[Sequence, dict], tasks: Sequence[str]) -> DevStats:
    """One inference pass over the dev set, given as its features and each
    task's ranking rows, whose scores it replaces: mean per-task loss, their
    sum over active tasks, and per-task MAP percentage (nan when no dev group
    has a positive)."""
    features, task_rows = dev
    scores = score_features(model, features)
    task_loss = {}
    task_map = {}
    for t in tasks:
        rows = [(key, doc, s, rank, rel)
                for (key, doc, _, rank, rel), s in zip(task_rows[t], scores[t])]
        gold = np.array([r[4] for r in rows], dtype=np.float64)
        task_loss[t] = float(np.mean(nn.clamped_bce(np.array(scores[t], dtype=np.float64), gold)))
        try:
            task_map[t] = evaluate_scores(rows).map
        except ValueError:
            task_map[t] = math.nan
    return DevStats(total=sum(task_loss.values()), task_loss=task_loss, task_map=task_map)


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

    features = [model.featurize(t) for t in train_data]
    gold = [binarize(t) for t in train_data]
    # the dev rows' query keys and labels are fixed; each dev pass fills in the scores
    dev_rows = {t: build_rows(dev_data, [0.0] * len(dev_data), t) for t in tasks}
    dev_set = ([model.featurize(t) for t in dev_data], dev_rows)

    epoch = 0
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

        dev = _dev_pass(model, dev_set, tasks)
        if not math.isfinite(dev.total):
            raise nn.NumericError(f"non-finite dev loss {dev.total} in epoch {epoch}")
        stats = EpochStats(
            epoch=epoch,
            loss_train=loss_train,
            loss_dev=dev.total,
            task_loss=dict(dev.task_loss),
            task_map=dict(dev.task_map),
        )
        report.history.append(stats)
        if log is not None:
            log(stats)

        dev_loss = {"joint": dev.total, **dev.task_loss}
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


def save_checkpoint(path: str, model, params: Optional[dict[str, np.ndarray]] = None) -> None:
    """Serialize the model to a deterministic binary container: magic, JSON
    index (meta, vocab, parameter table), then raw little-endian arrays in
    sorted name order.  Saving the same weights twice yields identical bytes.

    ``params`` substitutes a snapshot for the model's live arrays."""
    if params is None:
        params = snapshot(model)
    entries = []
    blobs = []
    offset = 0
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name])
        arr = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        blob = arr.tobytes()
        entries.append(
            {
                "name": name,
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": len(blob),
            }
        )
        blobs.append(blob)
        offset += len(blob)
    index = {
        "meta": _meta_for(model),
        "params": entries,
        "vocab": list(model.vocab.tokens[2:]),
    }
    head = json.dumps(index, sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = _MAGIC + len(head).to_bytes(8, "little") + head + b"".join(blobs)
    with atomic_write(path, "wb") as fh:
        fh.write(payload)


def _read_array(payload: bytes, entry: dict) -> np.ndarray:
    name, dtype, shape = entry["name"], np.dtype(entry["dtype"]), tuple(entry["shape"])
    offset, nbytes = entry["offset"], entry["nbytes"]
    if not isinstance(name, str) or not all(type(v) is int and v >= 0 for v in (offset, nbytes, *shape)):
        raise ValueError(f"array entry {name!r} needs a name and non-negative integer sizes")
    if dtype.kind != "f" or math.prod(shape) * dtype.itemsize != nbytes:
        raise ValueError(f"array {name!r}: shape {list(shape)} of {dtype} does not fill {nbytes} bytes")
    if offset + nbytes > len(payload):
        raise ValueError(f"truncated array {name!r}")
    return np.frombuffer(payload, dtype, count=math.prod(shape), offset=offset).reshape(shape).copy()


def _check_sizes(meta: dict, vocab_size: int, params: dict[str, np.ndarray]) -> None:
    """The meta sizes and the vocabulary agree with the stored question
    encoder (every network has one), so a model built from them is no larger
    than the arrays in the file."""
    expected = {
        "q_encoder.word_emb": (vocab_size, meta["d_w"]),
        "q_encoder.filters": (meta["m"], meta["d_w"] + meta["d_feat"], meta["filter_width"]),
    }
    for name, shape in expected.items():
        if name not in params:
            raise ValueError(f"no array {name!r}")
        if params[name].shape != shape:
            raise ValueError(
                f"array {name!r} has shape {list(params[name].shape)}, but the meta sizes "
                f"and the {vocab_size}-token vocabulary give {list(shape)}"
            )


def _read_checkpoint(path: str) -> tuple[dict, Vocabulary, dict[str, np.ndarray]]:
    """Parse and validate a checkpoint: its meta, vocabulary and arrays."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[: len(_MAGIC)] != _MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    pos = len(_MAGIC) + 8
    head_len = int.from_bytes(data[len(_MAGIC) : pos], "little")
    try:
        index = json.loads(data[pos : pos + head_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt index: {exc}") from exc
    payload = data[pos + head_len :]
    try:
        meta, entries, tokens = index["meta"], index["params"], index["vocab"]
        if not (isinstance(meta, dict) and isinstance(entries, list) and isinstance(tokens, list)):
            raise ValueError("meta must be an object, params and vocab lists")
        if not all(isinstance(t, str) for t in tokens):
            raise ValueError("vocab entries must be strings")
        if meta["kind"] not in ("mtl", "pair"):
            raise ValueError(f"unknown model kind {meta['kind']!r}")
        if meta["kind"] == "pair" and meta["task"] not in TASKS:
            raise ValueError(f"unknown pair task {meta['task']!r}")
        for key in SIZES:
            if type(meta[key]) is not int or meta[key] < 1:
                raise ValueError(f"meta {key} must be a positive integer, got {meta[key]!r}")
        if np.dtype(meta["dtype"]).kind != "f":
            raise ValueError(f"meta dtype {meta['dtype']!r} is not a float type")
        vocab = Vocabulary(tokens)
        params = {entry["name"]: _read_array(payload, entry) for entry in entries}
        _check_sizes(meta, len(vocab), params)
    except KeyError as exc:
        raise CheckpointError(f"{path}: index lacks {exc}") from None
    except (TypeError, ValueError, SyntaxError) as exc:  # np.dtype(",f4") raises SyntaxError
        raise CheckpointError(f"{path}: invalid index: {exc}") from None
    non_finite = [name for name, arr in params.items() if not np.isfinite(arr).all()]
    if non_finite:
        raise CheckpointError(f"{path}: non-finite values in {', '.join(non_finite)}")
    return meta, vocab, params


def load_checkpoint(path: str) -> CqaModel:
    """Rebuild the model (architecture, vocabulary, weights) from a file
    written by :func:`save_checkpoint`.  The stored arrays must be exactly
    the parameters of the network the meta describes."""
    meta, vocab, params = _read_checkpoint(path)
    model = CqaModel(
        vocab,
        task=meta["task"] if meta["kind"] == "pair" else None,
        dtype=np.dtype(meta["dtype"]),
        **{key: meta[key] for key in SIZES},
    )
    try:
        restore(model, params)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    return model
