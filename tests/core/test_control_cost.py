"""One control tick's layers, as executed counts (wall time cannot
resolve a frame on a shared machine; a count repeats exactly).

A flat :class:`ControlPlane` over the in-process transport, telemetry
off, one stage and one enforced policy.  Per stage a tick runs one
collect and one rate push through the fabric; everything else -- the
collect request, the policy's winner and rate, one push message per job
-- is paid once per tick or per job.  The pins: the Python frames a
collect and a push enter under their ``FaultyFabric.call``, that a
second stage adds exactly those frames and nothing else, and that no
dataclass ``__init__`` runs per stage (a stage's window travels as
named tuples).  A record or hook frame that grows back fails here
before any benchmark sees it.
"""

from __future__ import annotations

import gc
import sys

from repro.core.controller import ControlPlane
from repro.core.fabric import FaultyFabric
from repro.core.policies import ConstantRate, PolicyRule, RuleScope
from repro.core.rpc import CollectStats, EnforceRate
from repro.core.stage import DataPlaneStage, StageIdentity
from repro.core.transport import InProcTransport

#: Frames under one stage's ``FaultyFabric.call`` (the call included):
#: the fabric's dispatch (one frame: the call itself), the endpoint,
#: ``collect`` / ``_collect_window``, the channel's window and rate
#: (3), one ``ChannelSnapshot`` and one ``StageStats`` constructor.
COLLECT_FRAMES = 9
#: The fabric's dispatch, the endpoint, the stage's enforce path (2),
#: the channel's bucket (3).
PUSH_FRAMES = 7


def make_plane(n_stages: int) -> ControlPlane:
    plane = ControlPlane(fabric=FaultyFabric(transport=InProcTransport()))
    for i in range(n_stages):
        stage = DataPlaneStage(StageIdentity(f"job0/s{i}", "job0"), lambda req: None)
        stage.create_channel("metadata", 100.0)
        plane.register(stage)
    plane.install_policy(
        PolicyRule("cap", RuleScope("metadata", "job0"), ConstantRate(50.0))
    )
    plane.tick(1.0)  # warm
    return plane


def is_dataclass_init(code) -> bool:
    """A dataclass's generated ``__init__`` (compiled from a string)."""
    return code.co_name == "__init__" and code.co_filename == "<string>"


def profile_tick(plane: ControlPlane, now: float):
    """Every Python frame one tick enters, as ``(name, verb)``: ``name``
    is the code's ``co_name`` (``co_qualname`` is 3.11+), a dataclass
    ``__init__`` named by its class, and ``verb`` the message type of the
    ``FaultyFabric.call`` the frame runs under (None outside any)."""
    frames = []
    state = {"depth": 0, "call_depth": None, "verb": None}
    fabric_call = FaultyFabric.call.__code__

    def profiler(frame, event, arg):
        if event == "call":
            state["depth"] += 1
            code = frame.f_code
            name = code.co_name
            if is_dataclass_init(code):
                name = f"{type(frame.f_locals['self']).__name__}.__init__"
            if code is fabric_call and state["call_depth"] is None:
                state["call_depth"] = state["depth"]
                state["verb"] = type(frame.f_locals["message"])
            frames.append((name, state["verb"]))
        elif event == "return":
            if state["call_depth"] == state["depth"]:
                state["call_depth"] = state["verb"] = None
            state["depth"] -= 1

    # A collection inside the tick would run the finalizers of whatever
    # earlier code left in a cycle, as frames of this tick: collect
    # first, and let none start until the tick is done.
    gc.collect()
    gc.disable()
    sys.setprofile(profiler)
    try:
        plane.tick(now)
    finally:
        sys.setprofile(None)
        gc.enable()
    return frames


def under(frames, verb):
    return [name for name, v in frames if v is verb]


def test_a_collect_enters_the_pinned_frames_per_stage():
    frames = under(profile_tick(make_plane(1), 2.0), CollectStats)
    assert frames[0] == "call"
    assert "_collect_window" in frames
    assert len(frames) <= COLLECT_FRAMES, frames


def test_a_rate_push_enters_the_pinned_frames_per_stage():
    frames = under(profile_tick(make_plane(1), 2.0), EnforceRate)
    assert frames[0] == "call"
    assert "_enforce_rate" in frames
    assert len(frames) <= PUSH_FRAMES, frames


def test_a_second_stage_adds_one_collect_and_one_push_only():
    one = profile_tick(make_plane(1), 2.0)
    two = profile_tick(make_plane(2), 2.0)
    per_stage = len(under(one, CollectStats)) + len(under(one, EnforceRate))
    assert len(two) - len(one) == per_stage, (one, two)


def test_no_dataclass_init_per_stage():
    # The tick builds two messages -- the collect request once per tick,
    # the push once per job -- and no record per stage: a stage's window
    # is a StageStats of ChannelSnapshots, both named tuples.
    for n_stages in (1, 2):
        frames = profile_tick(make_plane(n_stages), 2.0)
        inits = [name for name, _ in frames if name.endswith(".__init__")]
        assert inits == ["CollectStats.__init__", "EnforceRate.__init__"], inits
