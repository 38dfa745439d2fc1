"""Shared fixtures for the test suite."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.simulation.engine import Environment
from repro.workloads.trace import OpTrace


@pytest.fixture(autouse=True)
def _no_padll_thread_outlives_its_test():
    """Fail a test that leaves a ``padll-*`` thread (control loop, socket
    reader or acceptor, host pump or monitor, workload driver) it started
    alive after a one-second grace."""
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + 1.0
    while True:
        leaked = sorted(
            thread.name for thread in threading.enumerate()
            if thread.name.startswith("padll-") and thread not in before
        )
        if not leaked or time.monotonic() > deadline:
            break
        time.sleep(0.02)
    if leaked:
        pytest.fail(f"threads left running: {leaked}")


@pytest.fixture
def env() -> Environment:
    return Environment()


@pytest.fixture
def small_trace() -> OpTrace:
    """A tiny deterministic 4-kind trace: 10 one-minute samples."""
    kinds = ("open", "close", "getattr", "rename")
    counts = np.array(
        [
            [600, 1200, 3000, 600],
            [1200, 2400, 6000, 1200],
            [600, 1200, 3000, 600],
            [2400, 4800, 12000, 2400],
            [600, 1200, 3000, 600],
            [60, 120, 300, 60],
            [600, 1200, 3000, 600],
            [1200, 2400, 6000, 1200],
            [600, 1200, 3000, 600],
            [60, 120, 300, 60],
        ],
        dtype=float,
    )
    return OpTrace(kinds, counts, sample_period=60.0)
