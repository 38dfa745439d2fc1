"""One local's well-typed but wrong reply moves only its own jobs.

Two locals share one fabric: A hosts ``a0`` and ``a1``, B hosts ``b0``.
B answers a collect with a job it does not host, with its own job twice,
or with an infinite or negative demand.  Each such reply is refused as
B's collect miss, so every job gets exactly the rates of the same run in
which B's collect raises ``RPCError`` -- and the allocator never sees a
value it would warn about.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.algorithms import ProportionalSharing
from repro.core.controller import ControlPlaneConfig
from repro.core.controller import ControlPlane
from repro.core.hierarchy import (
    AggregateStats,
    CollectAggregate,
    EnforceJobRateBatch,
)
from repro.core.stage import StageIdentity
from repro.errors import RPCError
from repro.telemetry import Telemetry, TelemetryConfig

TICKS = 6

A_REPLY = AggregateStats(("a0", "a1"), (300.0, 900.0), (1, 1))

HOSTILE = {
    "foreign job": AggregateStats(("b0", "a0"), (200.0, 5000.0), (1, 1)),
    "own job twice": AggregateStats(("b0", "b0"), (4000.0, 4000.0), (1, 1)),
    "-inf demand": AggregateStats(("b0",), (-math.inf,), (1,)),
    "+inf demand": AggregateStats(("b0",), (math.inf,), (1,)),
    "negative demand": AggregateStats(("b0",), (-50.0,), (1,)),
}


def local(reply):
    """A local's handler: ``reply`` to a collect (raised when it is an
    exception), True to a batch."""

    def handle(message):
        if isinstance(message, CollectAggregate):
            if isinstance(reply, Exception):
                raise reply
            return reply
        assert isinstance(message, EnforceJobRateBatch)
        return True

    return handle


def run(b_reply, max_missed_collects=None):
    telemetry = Telemetry(TelemetryConfig(trace=False))
    plane = ControlPlane(
        algorithm=ProportionalSharing(capacity=1000.0),
        config=ControlPlaneConfig(max_missed_collects=max_missed_collects),
        telemetry=telemetry,
    )
    plane.attach_local("A", local(A_REPLY))
    plane.attach_local("B", local(b_reply))
    for job_id, local_id in (("a0", "A"), ("a1", "A"), ("b0", "B")):
        plane.register_stage(StageIdentity(f"{job_id}-s0", job_id), local_id)
    with np.errstate(all="raise"):
        for t in range(TICKS):
            plane.tick(float(t))
    return plane, telemetry


def rates(plane, job_ids=("a0", "a1")):
    return [(now, job_id, rate) for now, job_id, rate in plane.enforcement_log
            if job_id in job_ids]


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_a_hostile_reply_is_that_locals_collect_miss(case):
    dropped, _ = run(RPCError("collect lost"))
    hostile, telemetry = run(HOSTILE[case])
    assert rates(hostile) == rates(dropped)
    assert list(hostile.enforcement_log) == list(dropped.enforcement_log)
    assert hostile.collect_failures == dropped.collect_failures == TICKS
    refused = list(telemetry.events.of_kind("control.reply_refused"))
    assert len(refused) == TICKS
    assert {e.fields["local"] for e in refused} == {"B"}


def test_refusals_count_towards_eviction_like_misses():
    dropped, _ = run(RPCError("collect lost"), max_missed_collects=3)
    hostile, _ = run(HOSTILE["foreign job"], max_missed_collects=3)
    assert [(now, endpoint) for now, endpoint in hostile.evictions] == [(2.0, "B")]
    assert list(hostile.evictions) == list(dropped.evictions)
    assert list(hostile.enforcement_log) == list(dropped.enforcement_log)
    assert "B" not in hostile.locals


def test_an_honest_reply_is_folded():
    plane, telemetry = run(AggregateStats(("b0",), (600.0,), (1,)))
    assert plane.collect_failures == 0
    assert not list(telemetry.events.of_kind("control.reply_refused"))
    # B's demand competes with A's: A gets less than with B silent.
    dropped, _ = run(RPCError("collect lost"))
    assert sum(r for _, _, r in rates(plane)) < sum(r for _, _, r in rates(dropped))
