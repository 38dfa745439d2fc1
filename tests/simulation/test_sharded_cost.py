"""One sharded control cycle (a control tick, then a rack epoch), as
executed Python frames at 4 and at 8 racks.

The global tier folds every rack's demand partials in one pass: adding
racks adds only the hop that collects each rack's partials, never a
per-rack step in the fold or in enforcement.  Counts, not times: a count
repeats exactly on a shared machine.  Only the package's own frames are
compared across sizes -- NumPy's Python-level wrappers are not this
package's plumbing.
"""

from __future__ import annotations

import gc
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.core.algorithms import ProportionalSharing
from repro.simulation.sharded import FluidConfig, ShardedConfig, ShardedSimulation

PACKAGE = str(Path(repro.__file__).parent)

#: The package frames one rack's collect enters: the fabric's dispatch
#: and the coordinator's rack handler (the reply's named-tuple
#: constructor is ``collections``' code, not the package's).
COLLECT_HOP = (
    ("fabric.py", "call"),
    ("coordinator.py", "_rack"),
)


def one_cycle(n_racks):
    """``(file, name)`` of every package frame one cycle enters, and the
    ``bincount`` calls the demand fold makes in it."""
    config = ShardedConfig(
        n_racks=n_racks,
        n_shards=2,
        n_jobs=8,
        stages_per_job=4,
        placement="split",
        fluid=FluidConfig(seed=0, clients_per_stage=20),
    )
    frames = Counter()
    fold_bincounts = []

    def profiler(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(PACKAGE):
                frames[(Path(code.co_filename).name, code.co_name)] += 1
            # NumPy 2 enters a Python dispatcher frame named after the
            # function; older releases report a C call.
            elif code.co_name == "bincount":
                fold_bincounts.append(frame.f_back.f_code.co_name)
        elif event == "c_call" and getattr(arg, "__name__", "") == "bincount":
            fold_bincounts.append(frame.f_code.co_name)

    epochs = []

    def hook(_plane, _now):
        # Counted: from the third epoch's control tick to the fourth's.
        epochs.append(_now)
        if len(epochs) == 3:
            # A collection inside the cycle would run earlier code's
            # finalizers as frames of it: collect first, then let none start.
            gc.collect()
            gc.disable()
            sys.setprofile(profiler)
        elif len(epochs) == 4:
            sys.setprofile(None)
            gc.enable()

    sim = ShardedSimulation(
        config, algorithm=ProportionalSharing(capacity=2000.0), epoch_hook=hook
    )
    try:
        sim.run(5.0)
    finally:
        sys.setprofile(None)
        gc.enable()
        sim.close()
    return frames, [name for name in fold_bincounts if name == "_job_demand_vec"]


@pytest.fixture(scope="module")
def cycles():
    return {n_racks: one_cycle(n_racks) for n_racks in (4, 8)}


@pytest.mark.parametrize("n_racks", [4, 8])
def test_the_demand_fold_is_one_bincount(cycles, n_racks):
    frames, fold_bincounts = cycles[n_racks]
    assert frames[("hierarchy.py", "_job_demand_vec")] == 1
    assert len(fold_bincounts) == 1


def test_four_more_racks_add_only_their_collect_hops(cycles):
    small, _ = cycles[4]
    large, _ = cycles[8]
    assert large - small == Counter({key: 4 for key in COLLECT_HOP})
    assert not small - large
