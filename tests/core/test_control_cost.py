"""One control tick's layers, as executed counts (wall time cannot
resolve a frame on a shared machine; a count repeats exactly).

A :class:`ControlPlane` over the in-process transport, telemetry off,
one job's stages registered in process -- so on the job's own local,
which calls them directly -- and one enforced policy.  A tick sends that
local one collect and one rate batch through the fabric; under each, the
local runs one collect or one rate push per stage.  Everything else --
the two requests, the policy's winner and rate -- is paid once per tick
or per local.  The pins: the Python frames a
collect and a push enter under their ``FaultyFabric.call``, that a second
stage of the job adds exactly its stage-side frames and no fabric call,
and that no dataclass ``__init__`` runs per stage (a stage's window
travels as named tuples).  A record or hook frame that grows back fails
here before any benchmark sees it.
"""

from __future__ import annotations

import gc
import sys

from repro.core.controller import ControlPlane
from repro.core.fabric import FaultyFabric
from repro.core.policies import ConstantRate, PolicyRule, RuleScope
from repro.core.hierarchy import CollectAggregate, EnforceJobRateBatch
from repro.core.stage import DataPlaneStage, StageIdentity
from repro.core.transport import InProcTransport

#: Frames one stage adds under its local's collect: ``collect`` /
#: ``_collect_window`` (the local calls an in-process stage directly) and
#: the channel's window and rate (3); its ``ChannelSnapshot`` and
#: ``StageStats`` are built without a Python frame.
STAGE_COLLECT_FRAMES = 5
#: Frames under the local's ``FaultyFabric.call`` with one stage (the
#: call included): the fabric's dispatch (one frame: the call itself),
#: the local's ``handle`` and the stage's frames (the ``AggregateStats``
#: reply is built without a Python frame).
COLLECT_FRAMES = 2 + STAGE_COLLECT_FRAMES
#: Frames one stage adds under its local's rate batch: the stage's
#: enforce path (2), the channel's bucket (3).
STAGE_PUSH_FRAMES = 5
#: The fabric's dispatch, the local's ``handle``, and the stage's frames.
PUSH_FRAMES = 2 + STAGE_PUSH_FRAMES


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
    frames = under(profile_tick(make_plane(1), 2.0), CollectAggregate)
    assert frames[0] == "call"
    assert "_collect_window" in frames
    assert len(frames) <= COLLECT_FRAMES, frames


def test_a_rate_push_enters_the_pinned_frames_per_stage():
    frames = under(profile_tick(make_plane(1), 2.0), EnforceJobRateBatch)
    assert frames[0] == "call"
    assert "_enforce_rate" in frames
    assert len(frames) <= PUSH_FRAMES, frames


def test_a_second_stage_adds_one_collect_and_one_push_only():
    # The job's second stage joins the same local: it adds its own
    # collect and push under the local's two calls, and no fabric call.
    one = profile_tick(make_plane(1), 2.0)
    two = profile_tick(make_plane(2), 2.0)
    for verb, per_stage in (
        (CollectAggregate, STAGE_COLLECT_FRAMES), (EnforceJobRateBatch, STAGE_PUSH_FRAMES)
    ):
        assert len(under(two, verb)) - len(under(one, verb)) == per_stage, (one, two)
    assert len(two) - len(one) == STAGE_COLLECT_FRAMES + STAGE_PUSH_FRAMES, (one, two)
    calls = [name for name, _ in two if name == "call"]
    assert calls == [name for name, _ in one if name == "call"] == ["call", "call"]


def test_no_dataclass_init_per_stage():
    # The tick builds two messages -- the collect request once per tick,
    # the batch once per local -- and no record per stage: the local calls
    # its in-process stages directly, and a stage's window is a
    # StageStats of ChannelSnapshots, both named tuples.
    for n_stages in (1, 2):
        frames = profile_tick(make_plane(n_stages), 2.0)
        inits = [name for name, _ in frames if name.endswith(".__init__")]
        assert inits == ["CollectAggregate.__init__", "EnforceJobRateBatch.__init__"], inits
