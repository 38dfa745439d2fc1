"""Async collect sessions: deadlines, retries, budget, staleness."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.core.algorithms import ProportionalSharing
from repro.core.controller import ControlPlane, ControlPlaneConfig
from repro.core.fabric import FaultyFabric, LinkProfile
from repro.core.hierarchy import (
    CollectAggregate,
    HierarchicalControlPlane,
    LocalController,
)
from repro.core.rpc import CollectStats
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
    def test_replies_feed_next_cycle(self, env):
        cp, fabric, stages = make_world(
            env,
            link=LinkProfile(latency=0.1),
            config=ControlPlaneConfig(async_collect=True),
        )

        def load(now):
            for stage in stages:
                stage.submit(Request(OperationType.OPEN, path="/f", count=10.0), now)

        drive(cp, env, ticks=5, load=load)
        # Replies arrive 0.2s after issue -- fresh by the next tick -- so
        # the allocator runs and enforces from tick 1 onward.
        assert cp.collect_failures == 0
        assert len(cp.enforcement_log) > 0
        assert cp.collect_timeouts == 0

    def test_slow_link_times_out(self, env):
        cp, fabric, stages = make_world(
            env,
            link=LinkProfile(latency=5.0),  # way past the 0.5s deadline
            config=ControlPlaneConfig(async_collect=True),
        )
        drive(cp, env, ticks=4)
        assert cp.collect_timeouts > 0
        assert cp.collect_failures > 0  # retries default to 0: each timeout is a miss

    def test_total_loss_evicts_at_limit(self, env):
        cp, fabric, stages = make_world(
            env,
            link=LinkProfile(loss=1.0),
            config=ControlPlaneConfig(async_collect=True, max_missed_collects=3),
        )
        drive(cp, env, ticks=10)
        assert len(cp.stages) == 0
        evicted = {stage_id for _, stage_id in cp.evictions}
        assert evicted == {"s0", "s1"}

    def test_retries_defer_misses(self, env):
        config_no_retry = ControlPlaneConfig(async_collect=True)
        config_retries = ControlPlaneConfig(
            async_collect=True,
            max_collect_retries=3,
            retry_backoff=0.0,
        )
        results = {}
        for name, config in (("none", config_no_retry), ("retries", config_retries)):
            e = Environment()
            cp, _, _ = make_world(e, link=LinkProfile(loss=1.0), config=config)
            drive(cp, e, ticks=8)
            results[name] = cp.collect_failures
        # With retries, several timeouts fold into one liveness miss.
        assert results["retries"] < results["none"]

    def test_retry_backoff_spaces_attempts(self, env):
        cp, fabric, stages = make_world(
            env,
            link=LinkProfile(loss=1.0),
            config=ControlPlaneConfig(
                async_collect=True,
                max_collect_retries=10,
                retry_backoff=2.0,
            ),
            n_stages=1,
            algorithm=False,
        )
        drive(cp, env, ticks=10)
        # Exponential backoff: far fewer issues than ticks (every issued
        # collect is lost, so issues == timeouts == fabric calls).
        session = cp._sessions["s0"]
        assert session.timeouts <= 4
        assert fabric.calls <= 4

    def test_sync_path_untouched_by_default(self):
        config = ControlPlaneConfig()
        assert config.async_collect is False
        cp = ControlPlane(config=config)
        cp.register(make_stage("s0", "jobA"))
        cp.tick(0.0)  # default fabric, no engine: must not need call_async
        assert cp.collect_failures == 0


class TestSyncCollectOverDeferringFabric:
    """A deferring fabric acknowledges a send with ``True``; a synchronous
    collect must refuse that, not read it as a stage's stats."""

    def plane(self, env, kind, sync_messages=()):
        fabric = FaultyFabric(
            env, link=LinkProfile(latency=0.5), sync_messages=sync_messages
        )
        algorithm = ProportionalSharing(capacity=100.0)
        if kind == "flat":
            cp = ControlPlane(fabric=fabric, algorithm=algorithm)
            cp.register(make_stage("s0", "job0"))
        else:
            cp = HierarchicalControlPlane(fabric=fabric, algorithm=algorithm)
            cp.attach_local(LocalController("rack0"))
            cp.register_stage(make_stage("s0", "job0"), "rack0")
        return cp

    @pytest.mark.parametrize("kind", ["flat", "hierarchical"])
    def test_first_collect_names_the_fixes(self, env, kind):
        cp = self.plane(env, kind)
        with pytest.raises(ConfigError, match="async_collect=True") as info:
            cp.tick(0.0)
        assert "sync_messages" in str(info.value)
        assert len(cp.enforcement_log) == 0

    @pytest.mark.parametrize(
        "kind, verb", [("flat", CollectStats), ("hierarchical", CollectAggregate)]
    )
    def test_synchronous_collect_messages_still_work(self, env, kind, verb):
        cp = self.plane(env, kind, sync_messages=(verb,))
        cp.tick(0.0)
        assert len(cp.enforcement_log) == 1


class TestStaleness:
    def _age_stats(self, cp, stage_id, age, now):
        session = cp._sessions[stage_id]
        session.stats_at = now - age

    def test_stale_stats_discounted(self, env):
        config = ControlPlaneConfig(
            async_collect=True, stale_ttl=30.0, stale_halflife=5.0
        )
        cp, fabric, stages = make_world(
            env, link=LinkProfile(latency=0.1), config=config, n_stages=1
        )
        stages[0].submit(Request(OperationType.OPEN, path="/f", count=50.0), 0.0)
        drive(cp, env, ticks=3)
        # Manufacture staleness: pretend the reply arrived 10s (two
        # half-lives) ago, then recompute demands.
        stats = {"s0": cp._sessions["s0"].stats}
        assert len(cp.vector_job_ids()) == 1
        cp._stats_age = {"s0": 0.0}
        fresh = cp._job_demand_vec(stats)[0]
        cp._stats_age = {"s0": 10.0}
        stale = cp._job_demand_vec(stats)[0]
        assert stale == pytest.approx(fresh * 0.25)

    def test_stale_beyond_ttl_excluded(self, env):
        config = ControlPlaneConfig(async_collect=True, stale_ttl=2.0)
        cp, fabric, stages = make_world(
            env, link=LinkProfile(latency=0.1), config=config, n_stages=1
        )
        drive(cp, env, ticks=2)
        assert cp._sessions["s0"].stats is not None
        # Age the reply past the TTL: the next collect drops it.
        self._age_stats(cp, "s0", age=50.0, now=2.0)
        stats = cp._collect(2.0)
        assert "s0" not in stats

    def test_fresh_within_ttl_included_with_age(self, env):
        config = ControlPlaneConfig(async_collect=True, stale_ttl=10.0)
        cp, fabric, stages = make_world(
            env, link=LinkProfile(latency=0.1), config=config, n_stages=1
        )
        drive(cp, env, ticks=2)
        self._age_stats(cp, "s0", age=4.0, now=2.0)
        stats = cp._collect(2.0)
        assert "s0" in stats
        assert cp._stats_age["s0"] == pytest.approx(4.0)


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
        assert session.failures == 1
        assert session.pending is None
