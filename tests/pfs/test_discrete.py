"""Tests for the per-request MDS, including fluid-model validation."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, MDSUnavailable
from repro.pfs.costs import op_cost
from repro.pfs.discrete import ClosedLoopClient, DiscreteMDS, DiscreteMDSConfig
from repro.pfs.locks import LockMode
from repro.pfs.mds import MDSConfig, MetadataServer
from repro.simulation.engine import Environment


class TestConfig:
    @pytest.mark.parametrize(
        "kw",
        [{"capacity": 0.0}, {"n_threads": 0}],
    )
    def test_invalid(self, kw):
        with pytest.raises(ConfigError):
            DiscreteMDSConfig(**kw)

    def test_per_thread_rate(self):
        config = DiscreteMDSConfig(capacity=100.0, n_threads=4)
        assert config.per_thread_rate == 25.0


class TestService:
    def test_single_request_latency_is_service_time(self, env):
        mds = DiscreteMDS(env, DiscreteMDSConfig(capacity=100.0, n_threads=1))
        proc = mds.submit("getattr", "/f")
        env.run()
        assert proc.value == pytest.approx(mds.service_time("getattr"))
        assert mds.served["getattr"] == 1

    def test_cost_ordering_carries_to_latency(self, env):
        mds = DiscreteMDS(env, DiscreteMDSConfig(capacity=100.0, n_threads=1))
        assert mds.service_time("rename") == pytest.approx(
            mds.service_time("getattr") * op_cost("rename")
        )

    def test_thread_pool_parallelism(self, env):
        mds = DiscreteMDS(env, DiscreteMDSConfig(capacity=100.0, n_threads=4))
        for i in range(4):
            mds.submit("getattr", f"/f{i}")
        env.run()
        # Four threads finish four independent ops in one service time.
        assert env.now == pytest.approx(mds.service_time("getattr"))

    def test_queueing_beyond_threads(self, env):
        mds = DiscreteMDS(env, DiscreteMDSConfig(capacity=100.0, n_threads=2))
        for i in range(6):
            mds.submit("getattr", f"/f{i}")
        env.run()
        # 6 ops over 2 threads = 3 serial rounds.
        assert env.now == pytest.approx(3 * mds.service_time("getattr"))

    def test_write_lock_serialises_same_path(self, env):
        mds = DiscreteMDS(env, DiscreteMDSConfig(capacity=100.0, n_threads=4))
        for _ in range(3):
            mds.submit("setattr", "/same")
        env.run()
        # Same-path write locks serialise despite 4 threads.
        assert env.now >= 3 * mds.service_time("setattr") - 1e-9
        assert mds.lock_retries > 0

    def test_read_locks_share(self, env):
        mds = DiscreteMDS(env, DiscreteMDSConfig(capacity=100.0, n_threads=4))
        for _ in range(4):
            mds.submit("getattr", "/same")
        env.run()
        assert env.now == pytest.approx(mds.service_time("getattr"))
        assert mds.lock_retries == 0

    def test_unknown_kind(self, env):
        mds = DiscreteMDS(env)
        with pytest.raises(ConfigError):
            mds.submit("teleport", "/x")

    def test_failed_mds(self, env):
        mds = DiscreteMDS(env)
        mds.failed = True
        with pytest.raises(MDSUnavailable):
            mds.submit("getattr", "/x")


class TestClosedLoopClient:
    def test_throughput_tracks_capacity(self, env):
        mds = DiscreteMDS(env, DiscreteMDSConfig(capacity=1000.0, n_threads=8))
        client = ClosedLoopClient(env, mds)
        env.run(until=10.0)
        client.stop()
        # Saturated closed loop serves ~capacity getattrs/s.
        assert client.completed == pytest.approx(10_000, rel=0.05)


class TestFluidValidation:
    """The fluid MDS and the per-request MDS agree on throughput."""

    CAPACITY = 2_000.0  # cost units / s
    HORIZON = 20.0

    def _discrete_throughput(self, kind: str, offered_ops: float) -> float:
        env = Environment()
        mds = DiscreteMDS(
            env, DiscreteMDSConfig(capacity=self.CAPACITY, n_threads=8)
        )
        # Open-loop arrivals at a fixed rate, distinct paths (no lock
        # contention -- the fluid model has none either).
        interval = 1.0 / offered_ops
        counter = {"i": 0}

        def arrivals():
            while True:
                counter["i"] += 1
                mds.submit(kind, f"/p{counter['i']}")
                yield env.timeout(interval)

        env.process(arrivals())
        env.run(until=self.HORIZON)
        return mds.total_served() / self.HORIZON

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
            env = Environment()
            mds = DiscreteMDS(
                env, DiscreteMDSConfig(capacity=self.CAPACITY, n_threads=4)
            )
            offered = load * self.CAPACITY  # getattr: 1 unit/op
            interval = 1.0 / offered
            counter = {"i": 0}

            def arrivals(env=env, mds=mds, interval=interval, counter=counter):
                while True:
                    counter["i"] += 1
                    mds.submit("getattr", f"/p{counter['i']}")
                    yield env.timeout(interval)

            env.process(arrivals())
            env.run(until=10.0)
            results[load] = mds.mean_latency()
        assert results[1.5] > results[0.5] * 5
