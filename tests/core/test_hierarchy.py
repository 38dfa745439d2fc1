"""Hierarchical control plane: local aggregation, equivalence, eviction."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigError, RPCError, StageNotRegistered
from repro.core.algorithms import ProportionalSharing
from repro.core.controller import (
    COLLECT_DEADLINE,
    MAX_COLLECT_RETRIES,
    RETRY_BACKOFF,
    ControlPlane,
    ControlPlaneConfig,
)
from repro.core.fabric import FaultyFabric, LinkProfile
from repro.core.hierarchy import (
    AggregateStats,
    CollectAggregate,
    EnforceJobRateBatch,
    HierarchicalControlPlane,
    LocalController,
)
from repro.core.requests import OperationType, Request
from repro.core.rpc import Ping
from repro.core.stage import StageIdentity

from tests.core.test_controller import make_stage

#: Whole-second ticks (loop interval 1 s) in which a silent endpoint
#: exhausts two collect sessions -- ``max_missed_collects=2`` evicts it.
#: A session is 1 + MAX_COLLECT_RETRIES attempts, each timing out after
#: COLLECT_DEADLINE intervals, with a backoff before every retry.
EXHAUST_TWICE = 1 + 2 * (
    (1 + MAX_COLLECT_RETRIES) * math.ceil(COLLECT_DEADLINE)
    + MAX_COLLECT_RETRIES * math.ceil(RETRY_BACKOFF)
)


def build_flat(n_jobs=3, stages_per_job=2, capacity=120.0):
    cp = ControlPlane(algorithm=ProportionalSharing(capacity=capacity))
    stages = []
    for j in range(n_jobs):
        for s in range(stages_per_job):
            stage = make_stage(f"j{j}s{s}", f"job{j}")
            cp.register(stage)
            stages.append(stage)
    return cp, stages


def attach_racks(cp, n_racks):
    """``n_racks`` in-process locals, each attached at its id."""
    racks = [LocalController(f"rack{r}") for r in range(n_racks)]
    for rack in racks:
        cp.attach_local(rack.local_id, rack.handle)
    return racks


def host(cp, rack, stage):
    """Register ``stage`` on its rack's local, then on the plane."""
    rack.register(stage)
    cp.register_stage(stage.identity, rack.local_id)


def build_hier(n_jobs=3, stages_per_job=2, n_racks=2, capacity=120.0, config=None):
    """Whole-job-per-rack placement: job j lives on rack j % n_racks."""
    cp = HierarchicalControlPlane(
        config=config, algorithm=ProportionalSharing(capacity=capacity)
    )
    racks = attach_racks(cp, n_racks)
    stages = []
    for j in range(n_jobs):
        for s in range(stages_per_job):
            stage = make_stage(f"j{j}s{s}", f"job{j}")
            host(cp, racks[j % n_racks], stage)
            stages.append(stage)
    return cp, stages, racks


def metadata_load(stages, now, count=10.0):
    for i, stage in enumerate(stages):
        stage.submit(
            Request(OperationType.OPEN, path="/f", count=count * (1 + i % 3)), now
        )


class TestLocalController:
    def test_aggregates_per_job_demand(self):
        local = LocalController("rack0")
        a = make_stage("s0", "jobA")
        b = make_stage("s1", "jobA")
        c = make_stage("s2", "jobB")
        for stage in (a, b, c):
            local.register(stage)
        a.submit(Request(OperationType.OPEN, path="/f", count=30.0), 0.0)
        b.submit(Request(OperationType.OPEN, path="/f", count=10.0), 0.0)
        c.submit(Request(OperationType.OPEN, path="/f", count=5.0), 0.0)
        agg = local.handle(
            CollectAggregate(now=1.0, channel="metadata", loop_interval=1.0)
        )
        assert isinstance(agg, AggregateStats)
        assert agg.job_ids == ("jobA", "jobB")
        assert agg.stage_counts == (2, 1)
        assert agg.demand[0] > agg.demand[1] > 0.0

    def test_enforce_fans_out_to_job_stages_only(self):
        local = LocalController("rack0")
        a = make_stage("s0", "jobA")
        b = make_stage("s1", "jobB")
        local.register(a)
        local.register(b)
        local.handle(
            EnforceJobRateBatch(
                channel_id="metadata", now=0.0, entries=(("jobA", 7.0, None),)
            )
        )
        assert a.channel_rate("metadata") == 7.0
        assert b.channel_rate("metadata") == float("inf")

    def test_ping_and_unknown_message(self):
        local = LocalController("rack0")
        assert local.handle(Ping(payload="hi")) == "hi"
        with pytest.raises(RPCError):
            local.handle(object())

    def test_registry_errors(self):
        local = LocalController("rack0")
        stage = make_stage("s0", "jobA")
        local.register(stage)
        with pytest.raises(ConfigError):
            local.register(stage)
        local.deregister("s0")
        with pytest.raises(StageNotRegistered):
            local.deregister("s0")
        with pytest.raises(ConfigError):
            LocalController("")


class TestHierarchicalRegistration:
    def test_flat_register_paths_rejected(self):
        cp, _, _ = build_hier()
        with pytest.raises(ConfigError):
            cp.register(make_stage("x", "jobX"))
        with pytest.raises(ConfigError):
            cp.register_endpoint(None, lambda m: None)

    def test_register_stage_requires_attached_local(self):
        cp = HierarchicalControlPlane()
        with pytest.raises(ConfigError):
            cp.register_stage(StageIdentity("s0", "jobA"), "ghost-rack")

    def test_duplicate_stage_rejected(self):
        cp = HierarchicalControlPlane()
        attach_racks(cp, 2)
        cp.register_stage(StageIdentity("s0", "jobA"), "rack0")
        with pytest.raises(ConfigError, match="already registered"):
            cp.register_stage(StageIdentity("s0", "jobA"), "rack1")
        assert cp.local_stages("rack0") == ["s0"]
        assert cp.local_stages("rack1") == []

    def test_duplicate_local_rejected(self):
        cp = HierarchicalControlPlane()
        attach_racks(cp, 1)
        with pytest.raises(ConfigError):
            cp.attach_local("rack0", LocalController("rack0").handle)

    def test_empty_local_id_rejected(self):
        cp = HierarchicalControlPlane()
        with pytest.raises(ConfigError):
            cp.attach_local("", lambda message: None)
        assert cp.locals == {}

    def test_job_bookkeeping_matches_flat(self):
        cp, _, _ = build_hier(n_jobs=3, stages_per_job=2)
        assert set(cp.jobs) == {"job0", "job1", "job2"}
        assert all(job.n_stages == 2 for job in cp.jobs.values())

    def test_deregister_cleans_all_maps(self):
        cp, _, racks = build_hier(n_jobs=1, stages_per_job=2, n_racks=1)
        cp.deregister("j0s0")
        cp.deregister("j0s1")
        assert cp.jobs == {}
        assert cp.stages == {}
        assert cp.local_stages("rack0") == []
        # The plane only records placement: the rack's owner deregisters
        # the stage there.
        assert racks[0].stage_ids == ["j0s0", "j0s1"]
        with pytest.raises(StageNotRegistered):
            cp.deregister("j0s0")


class TestEquivalence:
    """Acceptance criterion: on a fault-free fabric with whole-job-per-rack
    placement, the hierarchical plane's enforcement log matches the flat
    plane's cycle for cycle (bit-identical floats, same order)."""

    def test_enforcement_log_matches_cycle_for_cycle(self):
        flat, flat_stages = build_flat(n_jobs=4, stages_per_job=3)
        hier, hier_stages, _ = build_hier(n_jobs=4, stages_per_job=3, n_racks=2)
        for t in range(20):
            now = float(t)
            metadata_load(flat_stages, now)
            metadata_load(hier_stages, now)
            flat.tick(now)
            hier.tick(now)
            # Compare after every cycle, not only at the end.
            assert list(hier.enforcement_log) == list(flat.enforcement_log)
        assert len(flat.enforcement_log) > 0
        # The data planes saw identical enforcement too.
        for fs, hs in zip(flat_stages, hier_stages):
            assert (
                hs.channel_rate("metadata")
                == fs.channel_rate("metadata")
            )

    def test_equivalence_holds_with_uneven_rack_sizes(self):
        flat, flat_stages = build_flat(n_jobs=5, stages_per_job=2)
        hier, hier_stages, _ = build_hier(n_jobs=5, stages_per_job=2, n_racks=3)
        for t in range(12):
            now = float(t)
            metadata_load(flat_stages, now, count=25.0)
            metadata_load(hier_stages, now, count=25.0)
            flat.tick(now)
            hier.tick(now)
        assert list(hier.enforcement_log) == list(flat.enforcement_log)


class TestFaultTolerance:
    def test_silent_local_evicts_its_stage_population(self, env):
        fabric = FaultyFabric(env=env, link=LinkProfile(latency=0.1))
        cp = HierarchicalControlPlane(
            fabric=fabric,
            config=ControlPlaneConfig(max_missed_collects=2),
            algorithm=ProportionalSharing(capacity=100.0),
        )
        racks = attach_racks(cp, 2)
        for j in range(4):
            host(cp, racks[j % 2], make_stage(f"j{j}s0", f"job{j}"))
        # rack1 goes dark for good.
        fabric.set_link("rack1", LinkProfile(loss=1.0))
        for t in range(EXHAUST_TWICE):
            env.run(until=float(t))
            cp.tick(float(t))
        assert "rack1" not in cp.locals
        assert set(cp.jobs) == {"job0", "job2"}  # rack0's jobs survive
        assert set(cp.stages) == {"j0s0", "j2s0"}
        evicted = {endpoint for _, endpoint in cp.evictions}
        assert evicted == {"rack1"}

    def test_async_collect_feeds_allocator_through_locals(self, env):
        fabric = FaultyFabric(env=env, link=LinkProfile(latency=0.1))
        cp = HierarchicalControlPlane(
            fabric=fabric, algorithm=ProportionalSharing(capacity=100.0)
        )
        (rack,) = attach_racks(cp, 1)
        stages = [make_stage(f"s{i}", f"job{i}") for i in range(2)]
        for stage in stages:
            host(cp, rack, stage)
        for t in range(5):
            now = float(t)
            env.run(until=now)
            metadata_load(stages, now)
            cp.tick(now)
        assert len(cp.enforcement_log) > 0
        assert cp.collect_timeouts == 0
