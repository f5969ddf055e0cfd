"""Command-line interface.

Subcommands: ``extend`` (derive question-question training triples from
threads), ``train``, ``evaluate``, ``predict``, and ``gradcheck`` (finite-
difference check of the full model gradient).

Exit codes: 0 success, 1 usage or configuration errors, 2 data or checkpoint
errors, 3 numeric failures (non-finite losses, gradient check above
tolerance).
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import inspect
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import nn_core as nn
from .dataset import (
    TASKS,
    CorpusError,
    binarize,
    check_tasks,
    extend_dataset,
    load_corpus,
    positive_rates,
    save_corpus,
)
from .evaluation import build_rows, check_alpha, evaluate_scores, score_triples, tune_alpha, write_predictions
from .model import SIZES, CqaModel, apply_word_vectors, parameter_table
from .synthetic import gradcheck_corpus
from .text_pipeline import build_vocabulary, vocabulary_for
from .training import (
    STOPPING,
    CheckpointError,
    EpochStats,
    TrainConfig,
    joint_loss,
    load_checkpoint,
    restore,
    save_checkpoint,
    train,
    write_history_csv,
)

GRADCHECK_TOLERANCE = 1e-4

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


def read_config_file(path: str) -> dict[str, str]:
    """``key=value`` per line; blank lines and ``#`` comments ignored, and a
    line with no key, or a key set twice, refused."""
    values: dict[str, str] = {}
    set_on: dict[str, int] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, eq, value = line.partition("=")
                key = key.strip()
                if not eq or not key:
                    raise ValueError(f"{path}: line {lineno}: expected key=value, got {line!r}")
                if key in set_on:
                    raise ValueError(f"{path}: line {lineno}: {key!r} is already set on line {set_on[key]}")
                values[key], set_on[key] = value.strip(), lineno
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return values


def _defaults(fn, names) -> dict:
    params = inspect.signature(fn).parameters
    return {k: params[k].default for k in names}


# The train options that are both a flag and a config key, with their
# defaults: the TrainConfig fields, the network's sizes and the vocabulary
# cutoff.  Each option's type is its default's type.
_TRAIN_FIELDS = {f.name: f.default for f in dataclasses.fields(TrainConfig) if f.name != "tasks"}
_MODEL_SIZES = _defaults(CqaModel, SIZES)
_VOCAB_OPTIONS = _defaults(vocabulary_for, ("min_count",))
_TRAIN_OPTIONS = {**_TRAIN_FIELDS, **_MODEL_SIZES, **_VOCAB_OPTIONS}

_CONFIG_KEYS = {
    **{k: type(v) for k, v in _TRAIN_OPTIONS.items()},
    "tasks": str,
    "model": str,
    "task": str,
}


def merged_option(args: argparse.Namespace, config: dict[str, str], key: str, default):
    """Flag value if given, else config-file value, else the default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config:
        caster = _CONFIG_KEYS[key]
        try:
            return caster(config[key])
        except ValueError as exc:
            raise ValueError(f"config key {key}: {exc}") from exc
    return default


def _check_config_keys(config: dict[str, str]) -> None:
    unknown = set(config) - set(_CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")


def _parse_tasks(spec: str) -> tuple[str, ...]:
    return check_tasks(spec.replace(",", "").upper())


def _load_labelled(path: str) -> list:
    """A labelled corpus that holds at least one triple."""
    if not (data := load_corpus(path)):
        raise CorpusError(f"{path}: no triples")
    return data


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cqarank", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extend", help="derive question-question triples from comment threads")
    p.set_defaults(handler=cmd_extend)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--derived-only", action="store_true",
                   help="write only the derived triples instead of originals + derived")

    p = sub.add_parser("train", help="train a model")
    p.set_defaults(handler=cmd_train)
    p.add_argument("--corpus", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", help="key=value option file; flags override it")
    p.add_argument("--model", choices=["mtl", "pair"])
    p.add_argument("--task", choices=list(TASKS), help="task for the pair model")
    p.add_argument("--tasks", help="tasks to train, e.g. ABC or AC")
    for name, default in _TRAIN_OPTIONS.items():
        p.add_argument("--" + name.replace("_", "-"), type=type(default),
                       choices=STOPPING if name == "stopping" else None)
    p.add_argument("--vectors", help="pretrained word vector file")
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("evaluate", help="score a corpus and report MAP/MRR")
    p.set_defaults(handler=cmd_evaluate)
    p.add_argument("--model", required=True, dest="model_path")
    p.add_argument("--corpus", required=True)
    p.add_argument("--tasks")
    p.add_argument("--out", help="prediction TSV path (per-task suffix when several tasks)")
    p.add_argument("--alpha", type=float, help="blend weight for the search-rank prior")
    p.add_argument("--tune-alpha", action="store_true",
                   help="grid-search the blend weight and report the best")

    p = sub.add_parser("predict", help="write ranked predictions as TSV")
    p.set_defaults(handler=cmd_predict)
    p.add_argument("--model", required=True, dest="model_path")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--task", choices=list(TASKS))
    p.add_argument("--alpha", type=float)

    p = sub.add_parser("gradcheck", help="finite-difference check of the model gradient")
    p.set_defaults(handler=cmd_gradcheck)
    p.add_argument("--probes", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", type=int, default=8)
    p.add_argument("--delta", type=float, default=1e-4)

    return parser


def cmd_extend(args: argparse.Namespace) -> int:
    data = _load_labelled(args.corpus)
    derived = extend_dataset(data)
    out = derived if args.derived_only else list(data) + derived
    save_corpus(args.out, out)
    print(f"original={len(data)} extended={len(derived)} total={len(data) + len(derived)}")
    print("positive rates:", " ".join(f"{t}={r:.2f}%" for t, r in zip(TASKS, positive_rates(out))))
    print(f"wrote {len(out)} triples to {args.out}")
    return EXIT_OK


def _print_epoch(stats: EpochStats) -> None:
    maps = " ".join(f"map{t}={v:.2f}" for t, v in stats.task_map.items())
    print(f"epoch {stats.epoch}: loss_train={stats.loss_train:.6f} loss_dev={stats.loss_dev:.6f} {maps}")


def cmd_train(args: argparse.Namespace) -> int:
    config_file = read_config_file(args.config) if args.config else {}
    _check_config_keys(config_file)

    kind = merged_option(args, config_file, "model", "mtl")
    if kind not in ("mtl", "pair"):
        raise ValueError(f"model must be 'mtl' or 'pair', got {kind!r}")
    tasks_spec = merged_option(args, config_file, "tasks", None)
    task = merged_option(args, config_file, "task", None)
    if kind == "pair":
        if task is None:
            raise ValueError("the pair model needs --task")
        if tasks_spec is not None:
            raise ValueError("--tasks is for the mtl model; the pair model trains its --task")
        tasks = (task,)
    else:
        if task is not None:
            raise ValueError("--task is for the pair model; the mtl model trains --tasks")
        tasks = TASKS if tasks_spec is None else _parse_tasks(tasks_spec)

    def options(defaults: dict) -> dict:
        return {k: merged_option(args, config_file, k, v) for k, v in defaults.items()}

    # every option is checked before either corpus is read: the TrainConfig
    # rules, then the size and min_count rules on a stand-in vocabulary
    train_conf = TrainConfig(tasks=tasks, **options(_TRAIN_FIELDS))
    sizes, vocab_options = options(_MODEL_SIZES), options(_VOCAB_OPTIONS)
    parameter_table(1, task, **sizes)
    build_vocabulary((), **vocab_options)

    train_data = _load_labelled(args.corpus)
    dev_data = _load_labelled(args.dev)

    vocab = vocabulary_for(train_data, max_len=sizes["max_len"], **vocab_options)
    model = CqaModel(vocab, task=task, seed=train_conf.seed, **sizes)

    if args.vectors:
        n = apply_word_vectors(model, args.vectors)
        if not args.quiet:
            print(f"loaded pretrained vectors for {n} tokens")

    report = train(model, train_data, dev_data, train_conf, log=None if args.quiet else _print_epoch)

    os.makedirs(args.out_dir, exist_ok=True)
    write_history_csv(os.path.join(args.out_dir, "history.csv"), report.history)
    if train_conf.stopping == "global":
        save_checkpoint(os.path.join(args.out_dir, "model.ckpt"), model)
        print(
            f"stopped at epoch {report.stop_epoch} "
            f"(best epoch {report.best_epoch['joint']}); wrote model.ckpt"
        )
    else:
        for t in tasks:
            restore(model, report.snapshots[t])
            save_checkpoint(os.path.join(args.out_dir, f"model_{t}.ckpt"), model)
            print(f"task {t}: best epoch {report.best_epoch[t]}; wrote model_{t}.ckpt")
        print(f"stopped at epoch {report.stop_epoch}")
    return EXIT_OK


def _task_out_path(out: str, task: str, multi: bool) -> str:
    """Per-task file name when one --out path serves several tasks."""
    if not multi:
        return out
    root, ext = os.path.splitext(out)
    return f"{root}.{task}{ext}" if ext else f"{out}.{task}"


def _task_rows(model, data, tasks, alpha) -> tuple[dict, dict]:
    """Each task's ranking table from one scoring pass that runs only those
    tasks' heads, once every task is known to be one the checkpoint scores:
    the model's table, and the final table (its scores blended with the
    search rank when ``alpha`` is given)."""
    for t in tasks:
        if t not in model.tasks:
            raise ValueError(f"checkpoint scores tasks {model.tasks}, not {t!r}")
    scores = score_triples(model, data, tasks)
    tables = {t: build_rows(data, scores[t], t) for t in tasks}
    if alpha is None:
        return tables, tables
    return tables, {t: table.with_scores(table.blend([alpha])[0]) for t, table in tables.items()}


def _check_alpha(alpha: Optional[float]) -> None:
    """Refuse a bad blend weight before any file is read."""
    if alpha is not None:
        check_alpha(alpha)


def cmd_evaluate(args: argparse.Namespace) -> int:
    _check_alpha(args.alpha)
    tasks = None if args.tasks is None else _parse_tasks(args.tasks)
    model = load_checkpoint(args.model_path)
    data = _load_labelled(args.corpus)
    tasks = tasks or tuple(model.tasks)
    model_tables, tables = _task_rows(model, data, tasks, args.alpha)
    for t in tasks:
        if not tables[t].rel.any():
            raise CorpusError(f"{args.corpus}: task {t} has no query with a relevant candidate")
    results = [evaluate_scores(tables[t]) for t in tasks]
    suffix = "" if args.alpha is None else f" alpha={args.alpha:.2f}"
    for t, result in zip(tasks, results):
        print(
            f"task {t}: MAP={result.map:.2f} MRR={result.mrr:.2f} "
            f"queries={result.query_count} skipped={result.skipped}{suffix}"
        )
        if args.tune_alpha:
            alpha, best = tune_alpha(model_tables[t])
            print(f"task {t}: best alpha={alpha:.2f} MAP={best:.2f}")
        if args.out:
            path = _task_out_path(args.out, t, len(tasks) > 1)
            write_predictions(path, tables[t])
            print(f"wrote {path}")
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    _check_alpha(args.alpha)
    model = load_checkpoint(args.model_path)
    data = load_corpus(args.corpus, require_labels=False)
    task = args.task
    if task is None:
        if len(model.tasks) != 1:
            raise ValueError("--task is required for a multi-task checkpoint")
        task = model.tasks[0]
    _, tables = _task_rows(model, data, (task,), args.alpha)
    write_predictions(args.out, tables[task])
    print(f"wrote {len(data)} predictions to {args.out}")
    return EXIT_OK


def cmd_gradcheck(args: argparse.Namespace) -> int:
    data = gradcheck_corpus()
    vocab = vocabulary_for(data)
    model = CqaModel(vocab, m=args.m, d_w=10, d_feat=3, seed=args.seed, dtype=np.float64)
    features = model.featurize_all(data)
    gold = [binarize(t) for t in data]

    def loss_fn() -> nn.Tensor:
        return joint_loss(model.predict(features, training=False), gold, TASKS)

    max_err = nn.grad_check(
        loss_fn,
        model.parameters(),
        probe_count=args.probes,
        delta=args.delta,
        rng=np.random.default_rng(args.seed),
    )
    print(f"gradcheck: max relative error {max_err:.3e} over {args.probes} probes")
    if max_err < GRADCHECK_TOLERANCE:
        print("gradcheck: PASS")
        return EXIT_OK
    print(f"gradcheck: FAIL (tolerance {GRADCHECK_TOLERANCE:.0e})")
    return EXIT_NUMERIC


# glibc's mallopt parameters, and the values the CLI sets.  The mmap threshold
# is glibc's 64-bit maximum.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD = 64 << 20
_MMAP_THRESHOLD = 32 << 20


def _keep_freed_heap() -> None:
    """Keep the memory a training batch or scoring chunk frees in the process
    for the next one to reuse.  By default glibc trims the heap and unmaps
    large blocks after every batch, so the next batch page-faults the same
    memory back in.  The CLI owns its process, so it sets this; importing
    cqarank does not.  Without glibc's ``mallopt`` it does nothing."""
    try:
        libc = ctypes.CDLL(None)  # the symbols already loaded into the process
    except TypeError:  # Windows: CDLL takes no None there
        return
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)


def main(argv: Optional[Sequence[str]] = None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        # a diverging run or an overflowing head overflows before its loss or
        # score turns non-finite; the command reports that value as one error
        # line instead of numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return args.handler(args)
    except (CorpusError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except nn.NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a size too large for this machine
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
