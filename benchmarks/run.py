"""cqarank benchmark.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree: the program is imported from ``src/``.
Workloads: train_mtl, score_bulk, rank_online (see ``workloads.py``).

With ``--trace 0`` the whole time is measured untraced and the last line of
standard output holds the end-to-end metrics.  With ``--trace 1`` steps
alternate between untraced and traced; the last line holds the per-layer
metrics of the traced steps (plus one traced set-up and the checks, for the
I/O layers), and the report gives the tracing overhead as the
traced-minus-untraced change of each end-to-end metric.

The line before the result is a JSON report with the environment, the input
shape, the workload's metrics under their own names, the check outcome and
the failure count; the report and the trace spans are also written to
``.benchwork/`` under the source tree.  ``layers.json`` says what each metric
means per workload and which layer should move it.

Exit codes: 0 when every check passes, 1 when an operation failed or a
correctness check fired, 2 when the source tree has no ``src/cqarank``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Pinned before numpy loads: one BLAS thread per process is faster than two on
# a 2-core machine for these small matrices, and it keeps runs comparable.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".benchwork"
SETUP_REPEATS = 9


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put ``src/`` first on the import path; refuse to run without it."""
    if not (SRC / "cqarank" / "__init__.py").is_file():
        raise ImportError(f"no cqarank sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cqarank

    if Path(cqarank.__file__).resolve().parent != SRC / "cqarank":
        raise ImportError(f"imported cqarank from {cqarank.__file__}, not {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import bench

    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(bench.WORKLOADS)}",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    report, result = bench.execute(
        args.workload, args.seed, args.seconds, bool(args.trace), str(WORK),
        setup_repeats=SETUP_REPEATS,
    )
    report["environment"]["blas_threads_pinned"] = int(BLAS_THREADS)
    report["environment"].update(bench.git_state(str(ROOT)))
    tag = f"{args.workload}-trace{args.trace}"
    with open(WORK / f"report-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
