"""One loaded world-second of Fig. 4's ``open`` panel, as executed
Python frames (wall time cannot resolve a frame on a shared machine; a
count repeats exactly).

A single-kind Fig. 4 world does little arithmetic per second: one row
per replay tick, a few queue entries, one control tick.  What a
world-second costs there is mostly its fixed plumbing -- the replay,
drain, service and control hops -- so each setup's frames are pinned:
a hop that decides nothing and grows back fails here before any
benchmark sees it.  The counts are upper bounds: Python 3.12 inlines
the replay tick's list comprehension, one frame fewer.
"""

from __future__ import annotations

import gc
import sys

import pytest

from repro.experiments.fig4 import _build_world
from repro.experiments.harness import Setup
from repro.workloads.abci import generate_mdt_trace

#: The counted world-second is (TICK, TICK + 1]: the trace is loaded
#: there, and no collector sample falls in it (one every 5 s).
TICK = 100.0
#: PADLL's stepped limits: below the offered ``open`` rate, so the
#: channel throttles and the drain tick splits its head record.
LIMITS = (1000.0, 2000.0)

#: Frames per setup: replay tick and row delivery, the drain tick
#: (routing, MDS service, completion check -- a healthy active server is
#: read where it is needed, not resolved through ``active_mds``), the
#: control tick (collect request, policy walk); the staged setups add the
#: stage's classify and drain, one collect (10 frames) and, under PADLL,
#: one push (7).
FRAMES = {
    Setup.BASELINE: 20,
    Setup.PASSTHROUGH: 39,
    Setup.PADLL: 50,
}


@pytest.fixture(scope="module")
def trace():
    return generate_mdt_trace(seed=0)


def world_second_frames(setup: Setup, trace):
    """``(file, name)`` of every Python frame the world-second enters, and
    the ops the job delivered in it."""
    world = _build_world(
        setup, "open", 0, LIMITS if setup is Setup.PADLL else None, 360.0,
        trace=trace,
    )
    env = world.env
    run = env.run
    frames = []
    delivered = []

    def profiler(frame, event, arg):
        if event == "call":
            code = frame.f_code
            frames.append((code.co_filename.rsplit("/", 1)[-1], code.co_name))

    def run_one_counted_second(until):
        run(until=TICK)
        runtime = world._jobs["job1"]
        before = runtime.delivered_total
        # A collection inside the second would run earlier code's
        # finalizers as frames of it: collect first, then let none start.
        gc.collect()
        gc.disable()
        sys.setprofile(profiler)
        try:
            run(until=TICK + 1.0)
        finally:
            sys.setprofile(None)
            gc.enable()
        delivered.append(runtime.delivered_total - before)

    env.run = run_one_counted_second
    world.run(TICK + 1.0)
    return frames, delivered[0]


@pytest.mark.parametrize("setup", list(FRAMES), ids=lambda s: s.value)
def test_a_loaded_world_second_enters_the_pinned_frames(setup, trace):
    frames, delivered = world_second_frames(setup, trace)
    assert delivered > 0  # ops flowed through the counted second
    assert ("harness.py", "_drain_tick") in frames
    assert len(frames) <= FRAMES[setup], frames
