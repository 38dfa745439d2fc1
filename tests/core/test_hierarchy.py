"""The one plane's locals: aggregation, per-job locals against racks,
eviction."""

from __future__ import annotations

import math

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, RPCError, StageNotRegistered
from repro.core.algorithms import (
    DominantResourceFairness,
    PriorityPartition,
    ProportionalSharing,
    StaticPartition,
)
from repro.core.controller import (
    COLLECT_DEADLINE,
    MAX_COLLECT_RETRIES,
    RETRY_BACKOFF,
    ControlPlane,
    ControlPlaneConfig,
)
from repro.core.fabric import FaultyFabric, LinkProfile
from repro.core.policies import ConstantRate, PolicyRule, RuleScope
from repro.core.hierarchy import (
    AggregateStats,
    CollectAggregate,
    EnforceJobRateBatch,
    LocalController,
)
from repro.core.requests import OperationType, Request
from repro.core.rpc import EnforceRate, Ping, StageEndpoint
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


def build_job_locals(n_jobs=3, stages_per_job=2, capacity=120.0):
    """Every stage registered in process: one plane-owned local per job."""
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
    cp = ControlPlane(
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

    def test_a_lost_push_to_one_stage_does_not_abort_the_batch(self):
        # Two remote stages of one job on the plane's own local for it:
        # the first one's push is lost on its link, the second still gets
        # its rate, and the lost push is not a collect failure.
        cp = ControlPlane(algorithm=StaticPartition(30.0))
        stages = [make_stage(f"s{i}", "jobA") for i in range(2)]
        seen = []

        def remote(endpoint, lose_push):
            def handle(message):
                seen.append((endpoint.stage.identity.stage_id, type(message).__name__))
                if lose_push and isinstance(message, EnforceRate):
                    raise RPCError("push lost on the wire")
                return endpoint.handle(message)

            return handle

        for i, stage in enumerate(stages):
            cp.register_endpoint(stage.identity, remote(StageEndpoint(stage), i == 0))
        cp.tick(1.0)
        assert stages[0].channel_rate("metadata") == float("inf")
        assert stages[1].channel_rate("metadata") == 15.0
        assert ("s1", "EnforceRate") in seen
        assert cp.collect_failures == 0

    def test_a_stage_whose_collect_raises_makes_its_locals_collect_a_miss(self):
        cp = ControlPlane(algorithm=StaticPartition(30.0))
        good = make_stage("s0", "jobA")
        cp.register(good)

        def lost(message):
            raise RPCError("collect lost on the wire")

        cp.register_endpoint(StageIdentity("s1", "jobA"), lost)
        cp.register(make_stage("b0", "jobB"))
        cp.tick(1.0)
        assert cp.collect_failures == 1  # jobA's local, once
        assert cp._missed_collects == {"jobA": 1}
        # The plane still enforces every job from its registry.
        assert good.channel_rate("metadata") == 15.0

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
    def test_a_stage_joins_its_jobs_own_local(self):
        cp, _ = build_job_locals(n_jobs=2, stages_per_job=2)
        assert list(cp.locals) == ["job0", "job1"]
        assert cp.local_stages("job1") == ["j1s0", "j1s1"]
        assert cp.hosting_locals("job0") == ["job0"]
        cp.deregister("j1s0")
        assert "job1" in cp.locals  # the job's last stage is still there
        cp.deregister("j1s1")
        assert list(cp.locals) == ["job0"]
        assert not cp.fabric.bound("job1")
        # The job's next stage gets a fresh local.
        cp.register(make_stage("j1s2", "job1"))
        assert cp.local_stages("job1") == ["j1s2"]

    def test_a_jobs_local_may_not_take_a_callers_address(self):
        cp = ControlPlane()
        attach_racks(cp, 1)
        with pytest.raises(ConfigError, match="already attached"):
            cp.register(make_stage("s0", "rack0"))
        assert cp.stages == {}

    def test_register_endpoint_refuses_a_duplicate_stage(self):
        cp, _ = build_job_locals(n_jobs=1, stages_per_job=1)
        with pytest.raises(ConfigError, match="already registered"):
            cp.register_endpoint(StageIdentity("j0s0", "job0"), lambda m: None)
        assert cp.local_stages("job0") == ["j0s0"]

    def test_register_stage_requires_attached_local(self):
        cp = ControlPlane()
        with pytest.raises(ConfigError):
            cp.register_stage(StageIdentity("s0", "jobA"), "ghost-rack")

    def test_duplicate_stage_rejected(self):
        cp = ControlPlane()
        attach_racks(cp, 2)
        cp.register_stage(StageIdentity("s0", "jobA"), "rack0")
        with pytest.raises(ConfigError, match="already registered"):
            cp.register_stage(StageIdentity("s0", "jobA"), "rack1")
        assert cp.local_stages("rack0") == ["s0"]
        assert cp.local_stages("rack1") == []

    def test_duplicate_local_rejected(self):
        cp = ControlPlane()
        attach_racks(cp, 1)
        with pytest.raises(ConfigError):
            cp.attach_local("rack0", LocalController("rack0").handle)

    def test_empty_local_id_rejected(self):
        cp = ControlPlane()
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
    """On a fault-free fabric the plane's per-job locals and racks hosting
    whole jobs give the same enforcement log cycle for cycle (bit-identical
    floats, same order)."""

    def test_enforcement_log_matches_cycle_for_cycle(self):
        flat, flat_stages = build_job_locals(n_jobs=4, stages_per_job=3)
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
            assert hs.channel_rate("metadata") == fs.channel_rate("metadata")

    def test_equivalence_holds_with_uneven_rack_sizes(self):
        flat, flat_stages = build_job_locals(n_jobs=5, stages_per_job=2)
        hier, hier_stages, _ = build_hier(n_jobs=5, stages_per_job=2, n_racks=3)
        for t in range(12):
            now = float(t)
            metadata_load(flat_stages, now, count=25.0)
            metadata_load(hier_stages, now, count=25.0)
            flat.tick(now)
            hier.tick(now)
        assert list(hier.enforcement_log) == list(flat.enforcement_log)


#: The four allocators, each over the jobs a drawn world can hold.
ALLOCATORS = {
    "static": lambda: StaticPartition(30.0),
    "priority": lambda: PriorityPartition({"job0": 50.0, "job2": 10.0}, default=20.0),
    "proportional": lambda: ProportionalSharing(capacity=120.0),
    "drf": lambda: DominantResourceFairness(
        {"mds": 150.0, "net": 90.0},
        {f"job{j}": {"mds": 1.0, "net": 0.2 * (j % 4)} for j in range(5)},
    ),
}


def run_placed(spec, racks):
    """One drawn world on a fault-free fabric: ``racks=0`` registers every
    stage in process (the plane's per-job locals), otherwise whole jobs
    are round-robined over ``racks`` racks in join order.  Returns the
    enforcement log and every stage's rate, read after each tick."""
    allocator, jobs, policy, ticks = spec
    cp = ControlPlane(algorithm=ALLOCATORS[allocator]())
    if policy is not None:
        job_id, rate = policy
        cp.install_policy(
            PolicyRule("cap", RuleScope("metadata", job_id), ConstantRate(rate))
        )
    placed = attach_racks(cp, racks) if racks else []
    live = {}
    seen = []
    for t in range(ticks):
        now = float(t)
        for j, (n_stages, reservation, join, leave) in enumerate(jobs):
            job_id = f"job{j}"
            if t == join:
                cp.set_reservation(job_id, reservation)
                stages = [make_stage(f"j{j}s{s}", job_id) for s in range(n_stages)]
                rack = placed[j % racks] if racks else None
                for stage in stages:
                    if rack is None:
                        cp.register(stage)
                    else:
                        host(cp, rack, stage)
                live[job_id] = (stages, rack)
            elif t == leave and job_id in live:
                stages, rack = live.pop(job_id)
                for stage in stages:
                    cp.deregister(stage.identity.stage_id)
                    if rack is not None:
                        rack.deregister(stage.identity.stage_id)
        for stages, _ in live.values():
            metadata_load(stages, now, count=7.0 + 3.0 * len(stages))
        cp.tick(now)
        seen.append(
            [(s.identity.stage_id, s.channel_rate("metadata"))
             for stages, _ in live.values() for s in stages]
        )
    return list(cp.enforcement_log), seen


world_specs = st.tuples(
    st.sampled_from(sorted(ALLOCATORS)),
    st.lists(
        st.tuples(
            st.integers(1, 3),
            st.sampled_from([0.0, 5.0, 40.0]),
            st.integers(0, 4),
            st.integers(2, 12),
        ),
        min_size=1,
        max_size=5,
    ),
    st.one_of(st.none(), st.tuples(st.sampled_from(["job0", "job1"]), st.just(12.5))),
    st.integers(4, 12),
)


@settings(max_examples=60, deadline=None)
@given(world_specs, st.integers(1, 3))
def test_job_locals_equal_job_racks(spec, racks):
    """On a fault-free fabric the plane's per-job locals and racks hosting
    whole jobs (``placement="job"``) give bit-identical enforcement logs
    and per-stage rates after every tick, for every allocator, with a
    policy, reservations, and jobs joining and leaving."""
    assert run_placed(spec, 0) == run_placed(spec, racks)


class TestFaultTolerance:
    def test_silent_local_evicts_its_stage_population(self, env):
        fabric = FaultyFabric(env=env, link=LinkProfile(latency=0.1))
        cp = ControlPlane(
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
        cp = ControlPlane(
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
