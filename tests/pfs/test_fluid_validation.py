"""Fluid-model validation: the fluid MDS against a per-request reference.

The experiments serve metadata as a fluid (``MetadataServer.offer`` /
``service`` once per tick).  The reference here serves the same offered
load one request at a time: a D/D/c FIFO queue in closed form, where
each arrival starts on the earliest free of ``n_threads`` service
threads and holds it for ``op_cost(kind) / (capacity / n_threads)``
seconds.  The arrivals use distinct paths, so no namespace lock would
ever make one wait on another, and the reference needs none.
"""

from __future__ import annotations

import heapq

import pytest

from repro.pfs.costs import op_cost
from repro.pfs.mds import MDSConfig, MetadataServer


def per_request_mds(kind, offered_ops, horizon, capacity, n_threads):
    """``(served ops / s, mean latency s)`` of open-loop arrivals every
    ``1 / offered_ops`` seconds from 0 through ``horizon``, counting the
    requests that complete by ``horizon``."""
    service = op_cost(kind) / (capacity / n_threads)
    interval = 1.0 / offered_ops
    free = [0.0] * n_threads  # when each thread next falls idle
    latencies = []
    arrival = 0.0
    while arrival <= horizon:
        done = max(arrival, heapq.heappop(free)) + service
        heapq.heappush(free, done)
        if done <= horizon:
            latencies.append(done - arrival)
        arrival += interval
    mean = sum(latencies) / len(latencies) if latencies else 0.0
    return len(latencies) / horizon, mean


class TestFluidValidation:
    """The fluid MDS and the per-request MDS agree on throughput."""

    CAPACITY = 2_000.0  # cost units / s
    HORIZON = 20.0

    def _discrete_throughput(self, kind: str, offered_ops: float) -> float:
        served, _ = per_request_mds(kind, offered_ops, self.HORIZON, self.CAPACITY, 8)
        return served

    def _fluid_throughput(self, kind: str, offered_ops: float) -> float:
        mds = MetadataServer(
            config=MDSConfig(capacity=self.CAPACITY, can_fail=False,
                             degrade_after=1e9)
        )
        for t in range(int(self.HORIZON)):
            mds.offer(kind, offered_ops, float(t))
            mds.service(float(t), 1.0)
        return mds.served[kind] / self.HORIZON

    @pytest.mark.parametrize("kind", ["getattr", "open", "rename"])
    def test_underload_agreement(self, kind):
        offered = 0.5 * self.CAPACITY / op_cost(kind)
        discrete = self._discrete_throughput(kind, offered)
        fluid = self._fluid_throughput(kind, offered)
        assert discrete == pytest.approx(fluid, rel=0.05)

    @pytest.mark.parametrize("kind", ["getattr", "rename"])
    def test_saturation_agreement(self, kind):
        offered = 3.0 * self.CAPACITY / op_cost(kind)
        discrete = self._discrete_throughput(kind, offered)
        fluid = self._fluid_throughput(kind, offered)
        # Both models cap at the same service capacity.
        assert discrete == pytest.approx(self.CAPACITY / op_cost(kind), rel=0.05)
        assert fluid == pytest.approx(self.CAPACITY / op_cost(kind), rel=0.05)

    def test_latency_grows_with_load(self):
        # Deterministic arrivals below capacity never queue (D/D/c), so
        # the contrast point is an overloaded one where the queue builds.
        results = {}
        for load in (0.5, 1.5):
            offered = load * self.CAPACITY  # getattr: 1 unit/op
            _, results[load] = per_request_mds(
                "getattr", offered, 10.0, self.CAPACITY, 4
            )
        assert results[1.5] > results[0.5] * 5
