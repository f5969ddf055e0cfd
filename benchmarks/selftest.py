"""Self-test of the benchmark at tiny sizes.

    python3 benchmarks/selftest.py

Runs every workload traced and untraced and checks that each metric
``BENCHMARK.json`` names is emitted, with its unit, as a finite number.  Then
corrupts one output at a time (a dropped row, a perturbed score, a bad
count, a damaged checkpoint) and checks that the correctness checks fire.
Exits 0 when everything passes; takes about ten seconds.
"""

from __future__ import annotations

import contextlib
import json
import math
import re
import shutil
import sys
import tempfile
from pathlib import Path

import run

SEED = 3
failures: list[str] = []


def expect(condition: bool, label: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {label}")
    if not condition:
        failures.append(label)


def expect_fires(label: str, check) -> None:
    import checks

    try:
        check()
    except checks.CheckFailed as exc:
        expect(True, f"fires on {label}: {exc}")
        return
    expect(False, f"fires on {label}")


@contextlib.contextmanager
def corrupted(path: Path, edit):
    """Replace a file's text by ``edit(text)`` for the duration of the block."""
    original = path.read_bytes()
    path.write_text(edit(original.decode("utf-8")), encoding="utf-8")
    try:
        yield
    finally:
        path.write_bytes(original)


def test_metrics(spec: dict, workdir: str) -> None:
    import bench
    from workloads import TINY_SIZES

    for name in bench.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            report, result = bench.execute(name, SEED, 1.0, trace, workdir, 1, TINY_SIZES)
            label = f"{name} trace={int(trace)}"
            expect(result["correct"] and result["failed"] == 0, f"{label}: correct, nothing failed")
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = result["metrics"]
            expect(set(got) == set(wanted), f"{label}: emits exactly the {len(wanted)} {key} metrics")
            bad = [m for m in wanted if m in got and (
                got[m].get("unit") != wanted[m]
                or not isinstance(got[m].get("value"), (int, float))
                or not math.isfinite(got[m]["value"]))]
            expect(not bad, f"{label}: every metric has its unit and a finite value {bad[:3]}")
            expect(all(math.isfinite(v["value"]) for v in report["metrics"].values()),
                   f"{label}: workload metrics reported")
            shape = report["input_shape"]
            expect({"roles", "truncated_share", "groups", "vocab_size", "oov_share"} <= set(shape),
                   f"{label}: input shape reported")
            expect({"nproc", "numpy", "blas", "blas_threads"} <= set(report["environment"]),
                   f"{label}: environment reported")
            if trace:
                expect(bool(report.get("trace_overhead")), f"{label}: tracing overhead reported")


def _phase_with(*ops_and_outputs):
    """A phase holding copies of ops with replaced outputs."""
    from workloads import Op, Phase

    return Phase(ops=[Op(op.kind, op.wall_s, op.triples, op.ok, out) for op, out in ops_and_outputs])


def test_train_checks(workdir: str) -> None:
    from cqarank import model, training
    from workloads import PAPER_SIZES, TINY_SIZES, TrainMtl

    wl = TrainMtl(SEED, TINY_SIZES, workdir)
    wl.setup()
    phases = wl.measure(0.0)
    wl.check(phases)
    op = phases[0].ops[0]
    rows = op.output
    expect_fires("a missing history row", lambda: wl.check([_phase_with((op, rows[:-1]))]))
    nan_rows = [dict(r) for r in rows]
    nan_rows[-1]["loss_dev"] = "nan"
    expect_fires("a non-finite dev loss", lambda: wl.check([_phase_with((op, nan_rows))]))
    moved = [dict(r) for r in rows]
    moved[-1]["loss_dev"] = str(float(moved[-1]["loss_dev"]) + 1e-3)
    expect_fires("a dev loss that differs between identical runs",
                 lambda: wl.check([_phase_with((op, rows), (op, moved))]))
    ckpt = Path(wl.path("run/model.ckpt"))
    original = ckpt.read_bytes()
    trained = training.load_checkpoint(str(ckpt))
    try:
        ckpt.write_bytes(b"XXXX" + original[4:])
        expect_fires("a damaged checkpoint", lambda: wl.check(phases))
        training.save_checkpoint(str(ckpt), model.MtlModel(trained.vocab, seed=SEED + 1, **PAPER_SIZES))
        expect_fires("a checkpoint with other weights", lambda: wl.check(phases))
    finally:
        ckpt.write_bytes(original)
    wl.check(phases)


def _drop_last_row(text: str) -> str:
    return "".join(text.splitlines(keepends=True)[:-1])


def _repeat_first_rank(text: str) -> str:
    lines = text.splitlines(keepends=True)
    cells = lines[2].split("\t")
    cells[2] = lines[1].split("\t")[2]
    lines[2] = "\t".join(cells)
    return "".join(lines)


def _lower_last_score(text: str) -> str:
    # the last row is the lowest score of its group, so lowering it keeps
    # the ranking valid and only the predict/evaluate comparison can fire
    lines = text.splitlines(keepends=True)
    cells = lines[-1].split("\t")
    cells[3] = f"{float(cells[3]) - 1e-6:.6f}"
    lines[-1] = "\t".join(cells)
    return "".join(lines)


def test_score_bulk_checks(workdir: str) -> None:
    from workloads import TINY_SIZES, ScoreBulk

    wl = ScoreBulk(SEED, TINY_SIZES, workdir)
    wl.setup()
    phases = wl.measure(0.0)
    wl.check(phases)
    predicted = Path(wl.path("predict.tsv"))
    with corrupted(predicted, _drop_last_row):
        expect_fires("a missing prediction row", lambda: wl.check(phases))
    with corrupted(predicted, _repeat_first_rank):
        expect_fires("a repeated rank", lambda: wl.check(phases))
    with corrupted(Path(wl.path("eval.C.tsv")), _lower_last_score):
        expect_fires("one task-C score that differs between predict and evaluate",
                     lambda: wl.check(phases))
    (predict_op, evaluate_op) = phases[0].ops
    stdout = evaluate_op.output
    for label, edited in (
        ("a wrong queries= count", re.sub(r"queries=(\d+)", lambda m: f"queries={int(m[1]) + 1}", stdout, 1)),
        ("a MAP above 100", re.sub(r"MAP=\S+", "MAP=100.50", stdout, 1)),
        ("a missing task line", "\n".join(stdout.splitlines()[2:])),
    ):
        expect_fires(label, lambda: wl.check([_phase_with((predict_op, None), (evaluate_op, edited))]))
    wl.check(phases)


def test_rank_online_checks(workdir: str) -> None:
    from workloads import TINY_SIZES, RankOnline

    wl = RankOnline(SEED, TINY_SIZES, workdir)
    wl.setup()
    phases = wl.measure(0.0)
    wl.check(phases)
    op = phases[0].ops[0]
    ids, scores, ranked = op.output
    nudged = [scores[0] + 1e-4] + scores[1:]
    expect_fires("one perturbed online score", lambda: wl.check([_phase_with((op, (ids, nudged, ranked)))]))
    expect_fires("a reversed ranking",
                 lambda: wl.check([_phase_with((op, (ids, scores, ranked[::-1])))]))
    expect_fires("a ranking that drops a candidate",
                 lambda: wl.check([_phase_with((op, (ids, scores, ranked[:-1])))]))


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run.import_program()
    run.WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
    try:
        test_metrics(spec, workdir)
        test_train_checks(workdir)
        test_score_bulk_checks(workdir)
        test_rank_online_checks(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} failures" if failures else "selftest passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
