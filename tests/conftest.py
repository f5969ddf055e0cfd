"""``--split-delay=here|there`` runs the suite with one side of every
``nn_core`` hand-off (the forward pass of a ``split`` and the walk of its
node) sleeping 2 ms before it starts: ``here`` delays the caller's side,
``there`` the worker's.  Either order of the two threads must give the same
results, so a test that leans on one arrival order fails under one of them.
"""

import time

import pytest

import cqarank.nn_core as nn

SPLIT_DELAY_S = 0.002


def pytest_addoption(parser):
    parser.addoption(
        "--split-delay",
        choices=("here", "there"),
        default=None,
        help="delay the caller's (here) or the worker's (there) side of every nn_core hand-off by 2 ms",
    )


def late(fn):
    def run():
        time.sleep(SPLIT_DELAY_S)
        return fn()

    return run


@pytest.fixture(autouse=True)
def split_delay(request, monkeypatch):
    side = request.config.getoption("--split-delay")
    if side is not None:
        both = nn._both

        def delayed(there, here):
            return both(late(there), here) if side == "there" else both(there, late(here))

        monkeypatch.setattr(nn, "_both", delayed)
