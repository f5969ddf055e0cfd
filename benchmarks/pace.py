"""Host speed, sampled with a fixed reference kernel between operations.

The benchmark was tuned on a shared 2-core VM whose speed switches, for
seconds at a time, between a fast state and one about 40% slower (a fixed
kernel timed back to back reads either about 3.2 ms or about 4.5 ms).  An
operation that runs in a slow stretch is slow for a reason outside the
program, and medians or minima of raw wall times spread 15-30% between runs.

``Pace`` times a short block of a fixed reference kernel before operations,
so each operation has a measure of the host's speed just before and just
after it.  ``scaled`` turns an operation's wall time into the time it would
have taken at a fixed host speed, the one at which the kernel takes
``REFERENCE_KERNEL_S``:

    scaled = wall * REFERENCE_KERNEL_S / reference_around_the_operation

Normalising to a constant rather than to the run's own fastest reading keeps
the rare fast moments of a run out of the figure.

The kernel is benchmark code only (numpy and plain Python in the mix the
program uses: a windowed matmul as in a wide convolution, tanh, a partial
sort and dictionary work), so a change to the program does not move it.
Raw wall times are reported beside every scaled figure.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# The kernel's time in the fast state of the 2-core x86-64 VM (Python 3.11,
# numpy 2.4, OpenBLAS on one thread) where the benchmark was tuned.
REFERENCE_KERNEL_S = 1.4e-3
BLOCK_SAMPLES = 5  # kernel runs per block; the block's median is its reading
MIN_GAP_S = 0.25  # blocks are skipped between operations closer than this

_rng = np.random.default_rng(20170213)
_X = _rng.standard_normal((50, 108))
_W = _rng.standard_normal((100, 250))


def reference_kernel() -> float:
    """About 1.5 ms of fixed work on a 2-core x86-64 VM."""
    total = 0.0
    for _ in range(6):
        windows = np.lib.stride_tricks.sliding_window_view(_X, 5, axis=1)
        cols = np.ascontiguousarray(windows.transpose(1, 0, 2)).reshape(-1, 250)
        h = np.tanh(cols @ _W.T)
        total += float(np.partition(h, -5, axis=0)[-5:].sum())
        table = {}
        for i in range(400):
            table[i] = i * 0.5
        total += sum(table.values())
    return total


class Pace:
    """The reference-kernel readings of one run."""

    def __init__(self):
        self.starts: list[float] = []  # block start times, increasing
        self.ends: list[float] = []
        self.readings: list[float] = []  # block medians, seconds per kernel
        self.samples: list[float] = []  # every kernel time

    def sample(self, force: bool = False) -> None:
        """Time one block, unless the last one ended under ``MIN_GAP_S`` ago."""
        start = time.perf_counter()
        if not force and self.ends and start - self.ends[-1] < MIN_GAP_S:
            return
        times = []
        for _ in range(BLOCK_SAMPLES):
            t0 = time.perf_counter()
            reference_kernel()
            times.append(time.perf_counter() - t0)
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self.readings.append(statistics.median(times))
        self.samples.extend(times)

    def around(self, start: float, end: float) -> float:
        """Mean reading of the last block before ``start`` and the first
        after ``end`` (either alone at the edges)."""
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_left(self.starts, end)
        near = [self.readings[i] for i in (before, after) if 0 <= i < len(self.readings)]
        if not near:
            raise ValueError("no reference block around the operation")
        return sum(near) / len(near)

    def scaled(self, wall_s: float, start: float) -> float:
        """``wall_s`` at the reference host speed."""
        return wall_s * REFERENCE_KERNEL_S / self.around(start, start + wall_s)

    def summary(self) -> dict:
        return {
            "blocks": len(self.readings),
            "kernel_ms_reference": REFERENCE_KERNEL_S * 1e3,
            "kernel_ms_fastest": min(self.samples) * 1e3,
            "kernel_ms_median": statistics.median(self.samples) * 1e3,
        }
