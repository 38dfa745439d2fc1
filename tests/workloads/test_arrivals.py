"""Tests for arrival processes and the GCRA admission gate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.simulation.engine import Environment
from repro.workloads.arrivals import AdmissionGate, open_loop_arrivals


class TestOpenLoopArrivals:
    def test_deterministic_spacing(self, env):
        fired = []
        open_loop_arrivals(env, 10.0, lambda i: fired.append(env.now), stop_at=1.0)
        env.run(until=1.0)
        # Float accumulation may let an 11th arrival land just below 1.0.
        assert len(fired) in (10, 11)
        gaps = np.diff(fired)
        assert np.allclose(gaps, 0.1)

    def test_indices_sequential(self, env):
        seen = []
        open_loop_arrivals(env, 5.0, seen.append, stop_at=1.0)
        env.run(until=1.0)
        assert seen == list(range(len(seen)))

    def test_poisson_rate_and_determinism(self):
        counts = []
        for _ in range(2):
            env = Environment()
            fired = []
            open_loop_arrivals(
                env, 100.0, lambda i: fired.append(env.now),
                stop_at=20.0, poisson=True, seed=7,
            )
            env.run(until=20.0)
            counts.append(len(fired))
        assert counts[0] == counts[1]  # seeded: identical
        assert counts[0] == pytest.approx(2000, rel=0.1)

    def test_validation(self, env):
        with pytest.raises(ConfigError):
            open_loop_arrivals(env, 0.0, lambda i: None)


class TestAdmissionGate:
    def _grant_times(self, env, gate, n, issue_at=0.0):
        times = []

        def caller():
            if issue_at > 0:
                yield env.timeout(issue_at)
            for _ in range(n):
                yield gate.acquire()
                times.append(env.now)

        env.process(caller())
        env.run()
        return times

    def test_steady_rate(self, env):
        gate = AdmissionGate(env, rate=10.0)
        times = self._grant_times(env, gate, 5)
        assert times == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4])

    def test_burst_admits_immediately(self, env):
        gate = AdmissionGate(env, rate=10.0, burst=3)
        granted = []
        for _ in range(5):
            evt = gate.acquire()
            evt.callbacks.append(lambda e: granted.append(env.now))
        env.run()
        # First 3 at t=0 (burst), then spaced at the rate.
        assert granted[:3] == pytest.approx([0.0, 0.0, 0.0])
        assert granted[3] == pytest.approx(0.1)
        assert granted[4] == pytest.approx(0.2)

    def test_idle_time_restores_burst(self, env):
        gate = AdmissionGate(env, rate=10.0, burst=2)
        log = []

        def caller():
            for _ in range(2):
                yield gate.acquire()
                log.append(env.now)
            yield env.timeout(5.0)  # long idle: burst allowance restored
            for _ in range(2):
                yield gate.acquire()
                log.append(env.now)

        env.process(caller())
        env.run()
        assert log[2] == pytest.approx(log[3])  # both admitted together

    def test_long_run_rate_bounded(self, env):
        gate = AdmissionGate(env, rate=50.0, burst=5)
        granted = []
        for _ in range(200):
            evt = gate.acquire()
            evt.callbacks.append(lambda e: granted.append(env.now))
        env.run()
        elapsed = max(granted)
        # 200 grants need at least (200 - burst) / rate seconds.
        assert elapsed >= (200 - 5) / 50.0 - 1e-9

    def test_set_rate(self, env):
        gate = AdmissionGate(env, rate=1.0)
        gate.set_rate(100.0)
        assert gate.rate == 100.0
        with pytest.raises(ConfigError):
            gate.set_rate(0.0)

    def test_validation(self, env):
        with pytest.raises(ConfigError):
            AdmissionGate(env, rate=0.0)
        with pytest.raises(ConfigError):
            AdmissionGate(env, rate=1.0, burst=0)
