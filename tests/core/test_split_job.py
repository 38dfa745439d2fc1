"""Split-job placement: demand merge, staleness, eviction, bound locals.

Jobs whose stages span racks exercise the global tier's demand-merge
protocol (``repro.core.hierarchy`` module docstring): per-local partial
demands summed globally, per-local staleness discounting, the per-stage
rate split computed once from the job's *total* stage count, and one
enforcement push per hosting local.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, RPCError, StageNotRegistered
from repro.core.algorithms import MIN_RATE, ProportionalSharing
from repro.core.controller import STALE_HALFLIFE, ControlPlane, ControlPlaneConfig
from repro.core.fabric import FaultyFabric, LinkProfile
from repro.core.hierarchy import (
    AggregateStats,
    CollectAggregate,
    EnforceJobRateBatch,
    HierarchicalControlPlane,
    LocalController,
)
from repro.core.policies import ConstantRate, PolicyRule, RuleScope
from repro.core.requests import OperationType, Request
from repro.core.stage import StageIdentity

from tests.core.test_controller import make_stage
from tests.core.test_hierarchy import (
    EXHAUST_TWICE,
    attach_racks,
    build_flat,
    host,
    metadata_load,
)


def build_split(n_jobs=3, stages_per_job=2, n_racks=2, capacity=120.0, config=None):
    """Split placement: stage s of job j lives on rack (j + s) % n_racks."""
    cp = HierarchicalControlPlane(
        config=config, algorithm=ProportionalSharing(capacity=capacity)
    )
    racks = attach_racks(cp, n_racks)
    stages = []
    for j in range(n_jobs):
        for s in range(stages_per_job):
            stage = make_stage(f"j{j}s{s}", f"job{j}")
            host(cp, racks[(j + s) % n_racks], stage)
            stages.append(stage)
    return cp, stages, racks


def verbs(collect, enforce):
    """A local's handler from its two control verbs."""

    def handle(message):
        if isinstance(message, CollectAggregate):
            return collect(message)
        if isinstance(message, EnforceJobRateBatch):
            return enforce(message)
        raise RPCError(f"unhandled message type {type(message).__name__}")

    return handle


class TestSingleRackReduction:
    """Satellite acceptance: a job whose stages share one rack behaves
    exactly like today's whole-job placement -- and the flat plane."""

    def test_single_rack_split_matches_flat_bit_for_bit(self):
        flat, flat_stages = build_flat(n_jobs=4, stages_per_job=3)
        split, split_stages, _ = build_split(
            n_jobs=4, stages_per_job=3, n_racks=1
        )
        for t in range(15):
            now = float(t)
            metadata_load(flat_stages, now)
            metadata_load(split_stages, now)
            flat.tick(now)
            split.tick(now)
            assert list(split.enforcement_log) == list(flat.enforcement_log)
        assert len(flat.enforcement_log) > 0
        for fs, ss in zip(flat_stages, split_stages):
            assert ss.channel_rate("metadata") == fs.channel_rate("metadata")


class TestDemandMerge:
    def test_each_rack_reports_a_genuine_partial(self):
        _, stages, racks = build_split(n_jobs=2, stages_per_job=2, n_racks=2)
        metadata_load(stages, 0.0)
        # Split placement puts one stage of each job on each rack, so
        # every rack's aggregate is a partial: n_stages == 1 per job.
        for rack in racks:
            agg = rack.handle(
                CollectAggregate(now=1.0, channel="metadata", loop_interval=1.0)
            )
            assert set(agg.job_ids) == {"job0", "job1"}
            assert agg.stage_counts == (1, 1)
            assert all(demand > 0.0 for demand in agg.demand)

    def test_partials_merge_to_flat_plane_demand(self):
        cp, stages, _ = build_split(n_jobs=2, stages_per_job=2, n_racks=2)
        metadata_load(stages, 0.0)
        cp.tick(1.0)
        # Merging partials adds each rack's fold in stage-registration
        # order from 0.0 -- the flat plane's exact accumulation -- so the
        # enforcement decisions match bit for bit.
        flat, flat_stages = build_flat(n_jobs=2, stages_per_job=2)
        metadata_load(flat_stages, 0.0)
        flat.tick(1.0)
        assert list(cp.enforcement_log) == list(flat.enforcement_log)
        assert len(cp.enforcement_log) > 0

    def test_rate_split_uses_total_stage_count_once(self):
        cp, stages, _ = build_split(n_jobs=2, stages_per_job=2, n_racks=2)
        metadata_load(stages, 0.0)
        cp.tick(1.0)
        by_job = {job: rate for _, job, rate in cp.enforcement_log}
        for j, job_id in enumerate(("job0", "job1")):
            per_stage = max(MIN_RATE, by_job[job_id] / 2)
            for s in range(2):
                assert stages[j * 2 + s].channel_rate("metadata") == per_stage

    def test_each_hosting_local_pushed_exactly_once(self):
        pushes = []

        def enforce(local_id, message):
            pushes.extend((local_id, job_id) for job_id, _, _ in message.entries)
            return True

        def collect(message):
            return AggregateStats(("job0",), (50.0,), (2,))

        cp = HierarchicalControlPlane(
            algorithm=ProportionalSharing(capacity=10.0)
        )
        for r in range(2):
            cp.attach_local(
                f"rack{r}", verbs(collect, lambda m, r=r: enforce(f"rack{r}", m))
            )
        # 4 stages of one job spread over 2 racks: 2 stages per rack.
        for s in range(4):
            cp.register_stage(StageIdentity(f"s{s}", "job0"), f"rack{s % 2}")
        cp.tick(1.0)
        assert sorted(pushes) == [("rack0", "job0"), ("rack1", "job0")]

    def test_staleness_discount_is_per_local(self):
        cp = HierarchicalControlPlane(algorithm=ProportionalSharing(capacity=100.0))
        halflife = STALE_HALFLIFE * cp.config.loop_interval
        racks = attach_racks(cp, 2)
        for s in range(2):
            host(cp, racks[s], make_stage(f"s{s}", "job0"))
        stats = {
            f"rack{r}": AggregateStats(("job0",), (40.0,), (1,)) for r in range(2)
        }
        # rack0's aggregate is one halflife old; rack1's is fresh.  Only
        # rack0's partial dims -- its rack-mate contributes at full weight.
        cp._stats_age = {"rack0": halflife}
        assert cp.vector_job_ids() == ("job0",)
        assert cp._job_demand_vec(stats).tolist() == [40.0 * 0.5 + 40.0]


class TestSpanningJobEviction:
    """Satellite acceptance: a job whose hosting racks all evict
    mid-cycle disappears cleanly; co-hosted jobs on surviving racks keep
    their other stages."""

    def test_job_vanishes_when_every_hosting_rack_evicts(self, env):
        fabric = FaultyFabric(env=env, link=LinkProfile(latency=0.1))
        cp = HierarchicalControlPlane(
            fabric=fabric,
            config=ControlPlaneConfig(max_missed_collects=2),
            algorithm=ProportionalSharing(capacity=100.0),
        )
        racks = attach_racks(cp, 3)
        # jobA spans rack0+rack1 (both doomed); jobB spans rack1+rack2,
        # so it loses one stage but survives on rack2.
        host(cp, racks[0], make_stage("a0", "jobA"))
        host(cp, racks[1], make_stage("a1", "jobA"))
        host(cp, racks[1], make_stage("b0", "jobB"))
        host(cp, racks[2], make_stage("b1", "jobB"))
        fabric.set_link("rack0", LinkProfile(loss=1.0))
        fabric.set_link("rack1", LinkProfile(loss=1.0))
        for t in range(EXHAUST_TWICE):
            env.run(until=float(t))
            cp.tick(float(t))
        assert set(cp.locals) == {"rack2"}
        assert set(cp.jobs) == {"jobB"}
        assert cp.jobs["jobB"].n_stages == 1
        assert set(cp.stages) == {"b1"}
        evicted = {endpoint for _, endpoint in cp.evictions}
        assert evicted == {"rack0", "rack1"}
        # The survivor still gets demand-driven enforcement afterwards.
        cp.tick(12.0)
        assert all(job == "jobB" for _, job, _ in list(cp.enforcement_log)[-1:])


class TestBatchedEnforcement:
    """The algorithm's cycle pushes travel as one batch per local."""

    def test_local_controller_batch_matches_sequential_pushes(self):
        def record_into(log):
            def register(local):
                for j in range(2):
                    local.register_endpoint(
                        StageIdentity(f"s{j}", f"job{j}"),
                        lambda m, j=j: log.append((j, m.rate, m.burst)),
                    )
            return register

        batched_log = []
        batched = LocalController("rack0")
        record_into(batched_log)(batched)
        batched.handle(
            EnforceJobRateBatch(
                channel_id="metadata",
                now=1.0,
                entries=(("job0", 5.0, None), ("job1", 7.0, 14.0)),
            )
        )
        assert batched_log == [(0, 5.0, None), (1, 7.0, 14.0)]

    def test_cycle_sends_one_batch_per_hosting_local(self):
        # Two spanning jobs on two racks: each rack must receive exactly
        # one batch per cycle carrying both jobs' split rates in
        # allocation order.
        batches: dict = {}

        def make(rack_id):
            return verbs(
                lambda m: AggregateStats(("job0", "job1"), (40.0, 20.0), (1, 1)),
                lambda m: batches.setdefault(rack_id, []).append(m),
            )

        cp = HierarchicalControlPlane(
            algorithm=ProportionalSharing(capacity=100.0)
        )
        for r in range(2):
            cp.attach_local(f"rack{r}", make(f"rack{r}"))
        for j in range(2):
            for r in range(2):
                cp.register_stage(StageIdentity(f"j{j}r{r}", f"job{j}"), f"rack{r}")
        cp.tick(1.0)
        logged = {job: rate for _, job, rate in cp.enforcement_log}
        assert set(logged) == {"job0", "job1"}
        assert set(batches) == {"rack0", "rack1"}
        for msgs in batches.values():
            (message,) = msgs  # exactly one batch per local per cycle
            assert message.entries == (
                ("job0", logged["job0"] / 2, None),
                ("job1", logged["job1"] / 2, None),
            )

    def test_policy_push_is_a_batch_of_one_per_hosting_local(self):
        # A 4-stage job: one stage on each of two LocalControllers, two
        # behind a plain handler.  The policy's rate and burst are split
        # once over all four stages and reach every hosting local as one
        # single-entry batch.
        rack_batches = []
        cp = HierarchicalControlPlane()
        racks = attach_racks(cp, 2)
        cp.attach_local("rack2", verbs(lambda m: None, rack_batches.append))
        stages = [make_stage(f"s{r}", "job0") for r in range(2)]
        for rack, stage in zip(racks, stages):
            host(cp, rack, stage)
        for s in (2, 3):
            cp.register_stage(StageIdentity(f"s{s}", "job0"), "rack2")
        cp.install_policy(
            PolicyRule(
                name="cap",
                scope=RuleScope(channel_id="metadata"),
                schedule=ConstantRate(40.0),
                burst=120.0,
            )
        )
        cp.tick(1.0)
        for stage in stages:
            bucket = stage.channels["metadata"].bucket
            assert (bucket.rate, bucket.capacity) == (10.0, 30.0)
        (message,) = rack_batches
        assert message == EnforceJobRateBatch(
            channel_id="metadata", now=1.0, entries=(("job0", 10.0, 30.0),)
        )


class TestBoundLocal:
    """A local is an address and a handler; the plane keeps its stages."""

    def test_register_stage_bookkeeping_and_errors(self):
        cp = HierarchicalControlPlane()
        cp.attach_local("rack0", verbs(lambda m: None, lambda m: True))
        cp.register_stage(StageIdentity("s0", "job0"), "rack0")
        assert set(cp.stages) == {"s0"}
        assert cp.jobs["job0"].n_stages == 1
        assert cp.local_stages("rack0") == ["s0"]
        with pytest.raises(ConfigError):
            cp.register_stage(StageIdentity("s0", "job0"), "rack0")
        with pytest.raises(ConfigError):
            cp.register_stage(StageIdentity("s1", "job0"), "ghost-rack")
        cp.deregister("s0")
        assert cp.jobs == {}
        assert cp.local_stages("rack0") == []
        with pytest.raises(StageNotRegistered):
            cp.detach_local("ghost-rack")

    def test_evicting_a_local_removes_its_stages(self, env):
        fabric = FaultyFabric(env=env, link=LinkProfile(latency=0.1))
        cp = HierarchicalControlPlane(
            fabric=fabric,
            config=ControlPlaneConfig(max_missed_collects=2),
            algorithm=ProportionalSharing(capacity=100.0),
        )
        cp.attach_local(
            "rack0", verbs(lambda m: AggregateStats((), (), ()), lambda m: True)
        )
        cp.register_stage(StageIdentity("s0", "job0"), "rack0")
        fabric.set_link("rack0", LinkProfile(loss=1.0))
        for t in range(EXHAUST_TWICE):
            env.run(until=float(t))
            cp.tick(float(t))
        assert cp.locals == {}
        assert cp.jobs == {}
        assert cp.stages == {}
