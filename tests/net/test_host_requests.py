"""A stage host is one local of a hierarchy: a control tick costs each host
connection two requests, however many stages the host carries.

Counted, not timed: every ``WireConnection.request`` a tick makes is
recorded with the host it went to and the verb it carried.  A flat plane
over the same hosts would send one ``CollectStats`` and one
``EnforceRate`` per stage (64 at 32 stages); the hierarchy sends one
``CollectAggregate`` and one ``EnforceJobRateBatch`` per host, and a
policy push adds at most one batch per hosting connection.
"""

from __future__ import annotations

import time
from collections import Counter

import pytest

from repro.net import WireConnection
from repro.service.config import ServiceConfig, WorkloadSpec, stage_id
from repro.service.runtime import ServiceRuntime
from repro.service.stagehost import StageHost

HOSTS = 2


@pytest.fixture()
def sent(monkeypatch):
    """``(host, verb)`` of every request any connection makes."""
    record = []
    request = WireConnection.request

    def counting(self, address, message, deadline=None):
        record.append((self.peer, type(message).__name__))
        return request(self, address, message, deadline)

    monkeypatch.setattr(WireConnection, "request", counting)
    return record


@pytest.fixture()
def world(request):
    """``HOSTS`` stage hosts dialed into one service, each holding one
    whole job of ``request.param`` stages."""
    per_host = request.param
    runtime = ServiceRuntime(
        ServiceConfig(
            port=0,
            stage_procs=HOSTS,
            trace=False,
            workload=WorkloadSpec(jobs=HOSTS, stages_per_job=per_host, rate=0.0),
        )
    )
    hosts = []
    try:
        for index in range(HOSTS):
            host = StageHost(f"host{index}", [stage_id(index, s) for s in range(per_host)])
            hosts.append(host)
            host.start(*runtime.control_address)
        deadline = time.monotonic() + 5.0
        while len(runtime.controller.stages) < HOSTS * per_host:
            assert time.monotonic() < deadline, "stages never registered"
            time.sleep(0.01)
        yield runtime, hosts
    finally:
        for host in hosts:
            host.stop()
        runtime.stop()


def _per_host(sent, verb):
    return Counter(host for host, name in sent if name == verb)


@pytest.mark.parametrize("world", [1, 4, 32], indirect=True, ids=lambda n: f"{n}-stages")
def test_a_tick_is_two_requests_per_host(world, sent):
    runtime, hosts = world
    sent.clear()
    runtime.controller.tick(hosts[0].clock())
    hosts_named = {f"host{index}": 1 for index in range(HOSTS)}
    assert _per_host(sent, "CollectAggregate") == hosts_named
    assert _per_host(sent, "EnforceJobRateBatch") == hosts_named
    assert len(sent) == 2 * HOSTS  # no CollectStats, no EnforceRate


@pytest.mark.parametrize("world", [4], indirect=True)
def test_a_policy_push_is_one_batch_per_hosting_connection(world, sent):
    runtime, hosts = world
    runtime.admin("policy.set", {"name": "cap", "rate": 50.0})  # every job
    runtime.admin("job.rate", {"job": "job0", "rate": 20.0})  # job0, on host0
    sent.clear()
    runtime.controller.tick(hosts[0].clock())
    assert _per_host(sent, "CollectAggregate") == {"host0": 1, "host1": 1}
    # The algorithm's batch plus one per (job, channel) policy winner.
    assert _per_host(sent, "EnforceJobRateBatch") == {"host0": 2, "host1": 2}
    assert {name for _, name in sent} == {"CollectAggregate", "EnforceJobRateBatch"}
