"""``--split-delay=here|there`` runs the suite with one side of every
``nn_core`` hand-off (the forward pass of a ``split`` and the walk of its
node) sleeping 2 ms before it starts: ``here`` delays the caller's side,
``there`` the worker's.  Either order of the two threads must give the same
results, so a test that leans on one arrival order fails under one of them.
For finer interleavings such a run also has Python switch threads every
microsecond, not every 5 ms.
"""

import sys
import time

import pytest

import cqarank.nn_core as nn

SPLIT_DELAY_S = 0.002
SWITCH_INTERVAL_S = 1e-6


def pytest_addoption(parser):
    parser.addoption(
        "--split-delay",
        choices=("here", "there"),
        default=None,
        help="delay the caller's (here) or the worker's (there) side of every nn_core hand-off by 2 ms, "
        "and switch threads every 1 us",
    )


def late(fn):
    def run():
        time.sleep(SPLIT_DELAY_S)
        return fn()

    return run


@pytest.fixture(autouse=True, scope="session")
def fine_switching(request):
    old = sys.getswitchinterval()
    if request.config.getoption("--split-delay") is not None:
        sys.setswitchinterval(SWITCH_INTERVAL_S)
    yield
    sys.setswitchinterval(old)


@pytest.fixture(autouse=True)
def split_delay(request, monkeypatch):
    side = request.config.getoption("--split-delay")
    if side is not None:
        both = nn._both

        def delayed(there, here):
            return both(late(there), here) if side == "there" else both(there, late(here))

        monkeypatch.setattr(nn, "_both", delayed)
