"""Collect sessions: the fabric picks them; deadlines, retries and
staleness are constants counted in loop intervals."""

from __future__ import annotations

import pytest

from repro.core.algorithms import ProportionalSharing
from repro.core.controller import (
    COLLECT_DEADLINE,
    MAX_COLLECT_RETRIES,
    RETRY_BACKOFF,
    STALE_HALFLIFE,
    STALE_TTL,
    ControlPlane,
    ControlPlaneConfig,
)
from repro.core.fabric import FaultyFabric, LinkProfile
from repro.core.hierarchy import CollectAggregate, LocalController
from repro.core.requests import OperationType, Request
from repro.core.session import CollectSession
from repro.simulation.engine import Environment

from tests.core.test_controller import make_stage


def drive(cp, env, ticks, load=None):
    """Advance the engine tick by tick, calling the control loop at each
    whole second (the experiment harness' ordering, without the world)."""
    for t in range(ticks):
        now = float(t)
        env.run(until=now)
        if load is not None:
            load(now)
        cp.tick(now)
    env.run(until=float(ticks))


def make_world(env, *, link, config, n_stages=2, seed=0, capacity=100.0, algorithm=True):
    fabric = FaultyFabric(env=env, link=link, seed=seed)
    cp = ControlPlane(
        fabric=fabric,
        config=config,
        algorithm=ProportionalSharing(capacity=capacity) if algorithm else None,
    )
    stages = [make_stage(f"s{i}", f"job{i}") for i in range(n_stages)]
    for stage in stages:
        cp.register(stage)
    return cp, fabric, stages


class TestAsyncCollect:
    """An engine-attached fabric defers collects, so the plane runs its
    sessions with no flag; every timing is a constant in loop intervals."""

    def test_replies_feed_next_cycle(self, env):
        cp, fabric, stages = make_world(
            env, link=LinkProfile(latency=0.1), config=ControlPlaneConfig()
        )

        def load(now):
            for stage in stages:
                stage.submit(Request(OperationType.OPEN, path="/f", count=10.0), now)

        drive(cp, env, ticks=5, load=load)
        # Replies arrive 0.2s after issue -- fresh by the next tick -- so
        # the allocator runs and enforces from tick 1 onward.
        assert set(cp._sessions) == {"job0", "job1"}  # one per job's local
        assert cp.collect_failures == 0
        assert len(cp.enforcement_log) > 0
        assert cp.collect_timeouts == 0

    def test_slow_link_times_out(self, env):
        cp, fabric, stages = make_world(
            env,
            # A 10 s round trip: past the 2.5-interval deadline.
            link=LinkProfile(latency=5.0),
            config=ControlPlaneConfig(),
        )
        drive(cp, env, ticks=8)
        assert cp.collect_timeouts > 0
        # Each miss is 1 + MAX_COLLECT_RETRIES timeouts.
        assert cp.collect_failures > 0
        assert cp.collect_timeouts == cp.collect_failures * (1 + MAX_COLLECT_RETRIES)

    def test_total_loss_evicts_at_limit(self, env):
        cp, fabric, stages = make_world(
            env,
            link=LinkProfile(loss=1.0),
            config=ControlPlaneConfig(max_missed_collects=3),
        )
        drive(cp, env, ticks=25)
        assert len(cp.stages) == 0
        evicted = {local_id for _, local_id in cp.evictions}
        assert evicted == {"job0", "job1"}  # each stage's job local
        assert cp.locals == {}

    def test_retries_defer_misses(self, env):
        cp, fabric, _ = make_world(
            env, link=LinkProfile(loss=1.0), config=ControlPlaneConfig()
        )
        drive(cp, env, ticks=22)
        # Under total loss every attempt times out; a miss is counted only
        # once the retries are exhausted.
        assert cp.collect_failures == 6  # 2 stages x 3 exhausted sessions
        assert cp.collect_failures == cp.collect_timeouts / (1 + MAX_COLLECT_RETRIES)

    def test_retry_backoff_spaces_attempts(self, env):
        interval = 4.0
        cp, fabric, stages = make_world(
            env,
            link=LinkProfile(loss=1.0),
            config=ControlPlaneConfig(loop_interval=interval),
            n_stages=1,
            algorithm=False,
        )
        issued = []
        for t in range(23):
            env.run(until=float(t))
            calls = fabric.calls
            cp.tick(float(t))
            if fabric.calls > calls:
                issued.append(float(t))
        deadline = COLLECT_DEADLINE * interval  # 10 s
        retry = deadline + RETRY_BACKOFF * interval  # 1 s after the timeout
        # The retry times out too: retries are exhausted, the miss is
        # counted and a fresh attempt goes out at once.
        assert issued == [0.0, retry, retry + deadline]
        assert cp.collect_timeouts == 2
        assert cp.collect_failures == 1

    def test_sync_path_untouched_by_default(self):
        cp = ControlPlane(config=ControlPlaneConfig())
        cp.register(make_stage("s0", "jobA"))
        cp.tick(0.0)  # default fabric, no engine: must not need call_async
        assert cp.collect_failures == 0
        assert cp._sessions == {}


class TestSyncCollectOverDeferringFabric:
    """Over an engine fabric the collect loop is the fabric's to pick:
    sessions by default, the synchronous walk for a collect verb listed
    in ``sync_messages`` (the control-lag ablation's set-up)."""

    def plane(self, env, kind, sync_messages=()):
        fabric = FaultyFabric(
            env, link=LinkProfile(latency=0.5), sync_messages=sync_messages
        )
        algorithm = ProportionalSharing(capacity=100.0)
        cp = ControlPlane(fabric=fabric, algorithm=algorithm)
        if kind == "flat":  # the stage's job gets its own local
            cp.register(make_stage("s0", "job0"))
        else:
            rack = LocalController("rack0")
            cp.attach_local("rack0", rack.handle)
            stage = make_stage("s0", "job0")
            rack.register(stage)
            cp.register_stage(stage.identity, "rack0")
        return cp

    @pytest.mark.parametrize(
        "kind, endpoint", [("flat", "job0"), ("hierarchical", "rack0")]
    )
    def test_engine_fabric_runs_sessions(self, env, kind, endpoint):
        cp = self.plane(env, kind)
        assert cp.fabric.defers(CollectAggregate(0.0, "metadata", 1.0))
        cp.tick(0.0)
        assert set(cp._sessions) == {endpoint}
        assert cp._sessions[endpoint].pending is not None

    @pytest.mark.parametrize(
        "kind, verb", [("flat", CollectAggregate), ("hierarchical", CollectAggregate)]
    )
    def test_synchronous_collect_messages_still_work(self, env, kind, verb):
        cp = self.plane(env, kind, sync_messages=(verb,))
        assert not cp.fabric.defers(CollectAggregate(0.0, "metadata", 1.0))
        cp.tick(0.0)
        assert len(cp.enforcement_log) == 1
        assert cp._sessions == {}


class TestStaleness:
    INTERVAL = 1.0

    def _age_stats(self, cp, stage_id, age, now):
        session = cp._sessions[stage_id]
        session.stats_at = now - age

    def test_stale_stats_discounted(self, env):
        cp, fabric, stages = make_world(
            env, link=LinkProfile(latency=0.1), config=ControlPlaneConfig(), n_stages=1
        )
        stages[0].submit(Request(OperationType.OPEN, path="/f", count=50.0), 0.0)
        drive(cp, env, ticks=3)
        # Manufacture staleness: pretend the reply arrived two half-lives
        # ago, then recompute demands.
        stats = {"job0": cp._sessions["job0"].stats}
        assert len(cp.vector_job_ids()) == 1
        cp._stats_age = {"job0": 0.0}
        fresh = cp._job_demand_vec(stats)[0]
        cp._stats_age = {"job0": 2 * STALE_HALFLIFE * self.INTERVAL}
        stale = cp._job_demand_vec(stats)[0]
        assert stale == pytest.approx(fresh * 0.25)

    def test_stale_beyond_ttl_excluded(self, env):
        cp, fabric, stages = make_world(
            env, link=LinkProfile(latency=0.1), config=ControlPlaneConfig(), n_stages=1
        )
        drive(cp, env, ticks=2)
        assert cp._sessions["job0"].stats is not None
        # Age the reply past the TTL: the next collect drops it.
        self._age_stats(cp, "job0", age=STALE_TTL * self.INTERVAL + 1.0, now=2.0)
        stats = cp._collect(2.0)
        assert "job0" not in stats

    def test_fresh_within_ttl_included_with_age(self, env):
        cp, fabric, stages = make_world(
            env, link=LinkProfile(latency=0.1), config=ControlPlaneConfig(), n_stages=1
        )
        drive(cp, env, ticks=2)
        age = STALE_TTL * self.INTERVAL - 1.0
        self._age_stats(cp, "job0", age=age, now=2.0)
        stats = cp._collect(2.0)
        assert "job0" in stats
        assert cp._stats_age["job0"] == pytest.approx(age)


class TestSessionUnit:
    def test_abandon_ignores_late_reply(self, env):
        fabric = FaultyFabric(env=env, link=LinkProfile(latency=5.0))
        fabric.bind("s0", lambda m: "late")
        session = CollectSession("s0")
        session.issue(fabric, object(), 0.0)
        session.abandon()
        env.run(until=20.0)
        assert session.stats is None  # late reply discarded
        assert session.pending is None

    def test_reply_resets_attempts(self, env):
        fabric = FaultyFabric(env=env, link=LinkProfile(latency=0.5))
        fabric.bind("s0", lambda m: "stats")
        session = CollectSession("s0")
        session.attempt = 3
        session.issue(fabric, object(), 0.0)
        env.run(until=2.0)
        assert session.stats == "stats"
        assert session.attempt == 0
        assert session.stats_at == pytest.approx(1.0)

    def test_failure_flag_set_on_endpoint_error(self, env):
        def boom(message):
            raise RuntimeError("kaput")

        fabric = FaultyFabric(env=env, link=LinkProfile(latency=0.5))
        fabric.bind("s0", boom)
        session = CollectSession("s0")
        session.issue(fabric, object(), 0.0)
        env.run(until=2.0)
        assert session.failed
        assert session.pending is None
