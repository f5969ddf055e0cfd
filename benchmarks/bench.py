"""One benchmark run: set-up, the measured phases, the correctness checks and
the metrics, end-to-end or per layer."""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
from tracer import LAYERS, Tracer
from workloads import DEFAULT_SIZES, WORKLOADS, Phase, Sizes, Workload

REPORTED_OPS = ("embedding_lookup", "conv1d_wide", "kmax_pool", "dense", "dropout", "bce_loss", "concat", "add_n")

# Every per-layer metric, emitted by every workload with --trace 1; a layer
# the workload never reaches reads 0.
PER_LAYER = {}
for _op in REPORTED_OPS:
    PER_LAYER[f"nn_core.{_op}.fwd_us"] = "us"
    PER_LAYER[f"nn_core.{_op}.bwd_us"] = "us"
    PER_LAYER[f"nn_core.{_op}.calls"] = "count"
PER_LAYER.update({
    "nn_core.backward_us": "us",
    "nn_core.toposort_us": "us",
    "nn_core.graph_nodes_per_triple": "count",
    "nn_core.rmsprop_step_us": "us",
    "model.forward_train_us": "us",
    "model.forward_infer_us": "us",
    "model.featurize_us": "us",
    "model.featurize_calls": "count",
    "model.featurize_useful_ratio": "ratio",
    "text_pipeline.preprocess_us": "us",
    "training.dev_pass_s": "s",
    "training.load_checkpoint_ms": "ms",
    "training.save_checkpoint_ms": "ms",
    "dataset.load_corpus_us_per_record": "us",
    "evaluation.tune_alpha_s": "s",
    "evaluation.evaluate_scores_ms": "ms",
    "evaluation.evaluate_scores.calls": "count",
    "evaluation.build_rows_ms": "ms",
    "evaluation.write_predictions_ms": "ms",
    "evaluation.rank_rows_ms": "ms",
})
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_pct"] = "%"


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    stats = tracer.summary()

    def calls(name: str) -> int:
        return stats[name]["calls"] if name in stats else 0

    def mean(name: str, scale: float) -> float:
        return stats[name]["total_s"] / stats[name]["calls"] * scale if name in stats else 0.0

    out: dict[str, float] = {}
    for op in REPORTED_OPS:
        out[f"nn_core.{op}.fwd_us"] = mean(f"nn_core.{op}", 1e6)
        out[f"nn_core.{op}.bwd_us"] = mean(f"nn_core.{op}.bwd", 1e6)
        out[f"nn_core.{op}.calls"] = calls(f"nn_core.{op}")
    train_triples = calls("model.forward_train")
    useful, featurize_calls = tracer.featurize_useful()
    records = tracer.counts["dataset.load_corpus"]
    out.update({
        "nn_core.backward_us": mean("nn_core.backward", 1e6),
        "nn_core.toposort_us": mean("nn_core.toposort", 1e6),
        "nn_core.graph_nodes_per_triple": (
            tracer.counts["nn_core.toposort"] / train_triples if train_triples else 0.0
        ),
        "nn_core.rmsprop_step_us": mean("nn_core.rmsprop_step", 1e6),
        "model.forward_train_us": mean("model.forward_train", 1e6),
        "model.forward_infer_us": mean("model.forward_infer", 1e6),
        "model.featurize_us": mean("model.featurize", 1e6),
        "model.featurize_calls": featurize_calls,
        "model.featurize_useful_ratio": useful / featurize_calls if featurize_calls else 0.0,
        "text_pipeline.preprocess_us": mean("text_pipeline.preprocess", 1e6),
        "training.dev_pass_s": mean("training.dev_pass", 1.0),
        "training.load_checkpoint_ms": mean("training.load_checkpoint", 1e3),
        "training.save_checkpoint_ms": mean("training.save_checkpoint", 1e3),
        "dataset.load_corpus_us_per_record": (
            stats["dataset.load_corpus"]["total_s"] / records * 1e6 if records else 0.0
        ),
        "evaluation.tune_alpha_s": mean("evaluation.tune_alpha", 1.0),
        "evaluation.evaluate_scores_ms": mean("evaluation.evaluate_scores", 1e3),
        "evaluation.evaluate_scores.calls": calls("evaluation.evaluate_scores"),
        "evaluation.build_rows_ms": mean("evaluation.build_rows", 1e3),
        "evaluation.write_predictions_ms": mean("evaluation.write_predictions", 1e3),
        "evaluation.rank_rows_ms": mean("evaluation.rank_rows", 1e3),
    })
    self_s, measured_s = tracer.layer_self_seconds()
    for layer in LAYERS:
        out[f"{layer}.self_pct"] = 100.0 * self_s.get(layer, 0.0) / measured_s if measured_s else 0.0
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_threads_in_use():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads_in_use(),
    }


def git_state(root: str) -> dict:
    """Commit and dirtiness of ``root`` when it is the top of a git work tree."""
    def git(*args: str) -> str:
        done = subprocess.run(["git", "-C", root, *args], capture_output=True, text=True, timeout=30)
        return done.stdout.strip() if done.returncode == 0 else ""

    try:
        top = git("rev-parse", "--show-toplevel")
        if not top or Path(top).resolve() != Path(root).resolve():
            return {"git_commit": None, "git_dirty": None}
        return {"git_commit": git("rev-parse", "HEAD"), "git_dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.TimeoutExpired):
        return {"git_commit": None, "git_dirty": None}


def _timed_setup(workload: Workload) -> tuple[float, float]:
    """(wall time, start) of one set-up, with reference blocks on both sides."""
    workload.pace.sample(force=True)
    start = time.perf_counter()
    workload.setup()
    wall = time.perf_counter() - start
    workload.pace.sample(force=True)
    return wall, start


def _run_checks(workload: Workload, phases: list[Phase]) -> tuple[dict, dict]:
    """(check outcome, metrics the checks computed)."""
    try:
        return {"passed": True}, workload.check(phases)
    except (checks.CheckFailed, OSError) as exc:
        return {"passed": False, "error": f"{type(exc).__name__}: {exc}"}, {}


def _values(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def execute(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: str,
    setup_repeats: int,
    sizes: Sizes = DEFAULT_SIZES,
) -> tuple[dict, dict]:
    """Run one workload; returns (report, result line)."""
    rundir = tempfile.mkdtemp(prefix=f"run-{name}-", dir=workdir)
    try:
        workload = WORKLOADS[name](seed, sizes, rundir)
        setups = [_timed_setup(workload) for _ in range(setup_repeats)]
        report = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "environment": environment(),
            "input_shape": workload.shape(),
            "setup_raw_s": [wall for wall, _ in setups],
        }
        tracer = Tracer() if trace else None
        phases = workload.measure(seconds, tracer)
        if tracer is None:
            report["checks"], checked = _run_checks(workload, phases)
        else:
            # set-up and checks run traced once more, for the I/O layers
            tracer.install()
            workload.tracer = tracer
            try:
                traced_setup = _timed_setup(workload)
                report["checks"], checked = _run_checks(workload, phases)
            finally:
                tracer.uninstall()
                workload.tracer = None

        common, named = workload.metrics(phases[0])
        attempted = sum(len(p.ops) for p in phases)
        failed = sum(1 for p in phases for op in p.ops if not op.ok)
        rss = peak_rss_mb()
        setup_s = statistics.median(workload.pace.scaled(*setup) for setup in setups)
        report["pace"] = workload.pace.summary()
        end_to_end = {"setup_s": (setup_s, "s"), "peak_rss_mb": (rss, "MB"), **common}
        report["metrics"] = _values({**end_to_end, **named, **checked})
        report["failed_ratio"] = {
            "value": failed / attempted,
            "failed": failed,
            "attempted": attempted,
            "base": "operations attempted in the measured phases",
        }
        if tracer is not None:
            traced_common, traced_named = workload.metrics(phases[1])
            traced_setup_s = workload.pace.scaled(*traced_setup)
            traced = {"setup_s": (traced_setup_s, "s"), **traced_common, **traced_named}
            report["trace_overhead"] = {
                metric: {
                    "untraced": value,
                    "traced": traced[metric][0],
                    "change": (traced[metric][0] - value) / value if value else None,
                    "unit": unit,
                    "base": "untraced",
                }
                for metric, (value, unit) in {**end_to_end, **named}.items()
                if metric in traced
            }
            trace_path = os.path.join(workdir, f"trace-{name}.csv")
            tracer.write(trace_path)
            report["trace_spans"] = len(tracer.spans)
            report["trace_file"] = trace_path
            metrics = {key: {"value": value, "unit": PER_LAYER[key]}
                       for key, value in per_layer_metrics(tracer).items()}
        else:
            metrics = _values(end_to_end)
        result = {
            "correct": report["checks"]["passed"] and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
        return report, result
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
