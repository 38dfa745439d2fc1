"""One stage's well-typed but wrong window moves only its own job.

The plane polls three stages, each registered in process and so reached
through its job's own local: ``a0`` and ``a1`` report honest windows,
``b0`` answers with an infinite, negative or NaN count or backlog, or
with ops over a negative window.  The local folds such a window into a
demand not finite and >= 0, which the plane refuses as the collect miss
of ``b0``'s local, so every job gets exactly the rates of the same run in
which ``b0``'s collect raises ``RPCError`` (which makes the whole local's
collect a miss) -- and the allocator never sees a value it would warn
about.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.algorithms import ProportionalSharing
from repro.core.controller import ControlPlane, ControlPlaneConfig
from repro.core.rpc import CollectStats, EnforceRate
from repro.core.stage import ChannelSnapshot, StageIdentity, StageStats
from repro.errors import RPCError
from repro.telemetry import Telemetry, TelemetryConfig

TICKS = 6


def window(job_id, enqueued=0.0, backlog=0.0, span=1.0):
    """A one-channel ``metadata`` window of ``job_id``."""
    return StageStats(
        job_id, span, (ChannelSnapshot("metadata", 0.0, enqueued, backlog, 100.0),)
    )


HONEST = {"a0": window("a0", enqueued=300.0), "a1": window("a1", enqueued=900.0)}

HOSTILE = {
    "+inf ops": window("b0", enqueued=math.inf),
    "-inf ops": window("b0", enqueued=-math.inf),
    "negative ops": window("b0", enqueued=-50.0),
    "NaN ops": window("b0", enqueued=math.nan),
    "+inf backlog": window("b0", backlog=math.inf),
    "negative backlog": window("b0", enqueued=200.0, backlog=-500.0),
    "ops over a negative window": window("b0", enqueued=500.0, span=-1.0),
}


def stage(reply):
    """A stage's handler: ``reply`` to a collect (raised when it is an
    exception), nothing to a rate push."""

    def handle(message):
        if isinstance(message, CollectStats):
            if isinstance(reply, Exception):
                raise reply
            return reply
        assert isinstance(message, EnforceRate)
        return None

    return handle


def run(b_reply, max_missed_collects=None):
    telemetry = Telemetry(TelemetryConfig(trace=False))
    plane = ControlPlane(
        algorithm=ProportionalSharing(capacity=1000.0),
        config=ControlPlaneConfig(max_missed_collects=max_missed_collects),
        telemetry=telemetry,
    )
    for job_id, reply in (*HONEST.items(), ("b0", b_reply)):
        plane.register_endpoint(StageIdentity(f"{job_id}-s0", job_id), stage(reply))
    with np.errstate(all="raise"):
        for t in range(TICKS):
            plane.tick(float(t))
    return plane, telemetry


def rates(plane, job_ids=("a0", "a1")):
    return [(now, job_id, rate) for now, job_id, rate in plane.enforcement_log
            if job_id in job_ids]


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_a_hostile_window_is_that_stages_collect_miss(case):
    dropped, _ = run(RPCError("collect lost"))
    hostile, telemetry = run(HOSTILE[case])
    assert rates(hostile) == rates(dropped)
    assert list(hostile.enforcement_log) == list(dropped.enforcement_log)
    assert hostile.collect_failures == dropped.collect_failures == TICKS
    refused = list(telemetry.events.of_kind("control.reply_refused"))
    assert len(refused) == TICKS
    assert {e.fields["local"] for e in refused} == {"b0"}


def test_refusals_count_towards_eviction_like_misses():
    dropped, _ = run(RPCError("collect lost"), max_missed_collects=3)
    hostile, _ = run(HOSTILE["+inf ops"], max_missed_collects=3)
    assert [(now, endpoint) for now, endpoint in hostile.evictions] == [(2.0, "b0")]
    assert list(hostile.evictions) == list(dropped.evictions)
    assert list(hostile.enforcement_log) == list(dropped.enforcement_log)
    assert "b0-s0" not in hostile.stages


@pytest.mark.parametrize("span", [1.0, 0.0], ids=["window", "zero window"])
def test_an_honest_window_is_folded(span):
    # A zero window is a stage collected at the instant it started: its
    # ops count over one loop period, as in every simulated world.
    plane, telemetry = run(window("b0", enqueued=600.0, span=span))
    assert plane.collect_failures == 0
    assert not list(telemetry.events.of_kind("control.reply_refused"))
    # b0's demand competes with a0's and a1's: they get less than with b0 silent.
    dropped, _ = run(RPCError("collect lost"))
    assert sum(r for _, _, r in rates(plane)) < sum(r for _, _, r in rates(dropped))
