"""Tests for Resource."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.simulation.resources import Resource


class TestResource:
    def test_grants_up_to_capacity(self, env):
        res = Resource(env, capacity=2)
        holders = []

        def worker(name):
            req = res.request()
            yield req
            holders.append((env.now, name))
            yield env.timeout(10.0)
            res.release(req)

        for name in "abc":
            env.process(worker(name))
        env.run(until=5.0)
        assert len(holders) == 2
        assert res.in_use == 2
        assert res.queue_length == 1

    def test_release_wakes_waiter(self, env):
        res = Resource(env, capacity=1)
        order = []

        def worker(name, hold):
            req = res.request()
            yield req
            order.append((env.now, name))
            yield env.timeout(hold)
            res.release(req)

        env.process(worker("first", 4.0))
        env.process(worker("second", 1.0))
        env.run()
        assert order == [(0.0, "first"), (4.0, "second")]

    def test_release_without_hold_rejected(self, env):
        res = Resource(env)
        with pytest.raises(SimulationError):
            res.release(env.event())

    def test_invalid_capacity(self, env):
        with pytest.raises(SimulationError):
            Resource(env, capacity=0)

    def test_serial_throughput(self, env):
        """N workers through a single-slot resource take N * service time."""
        res = Resource(env, capacity=1)
        done = []

        def worker():
            req = res.request()
            yield req
            yield env.timeout(2.0)
            res.release(req)
            done.append(env.now)

        for _ in range(5):
            env.process(worker())
        env.run()
        assert done == [2.0, 4.0, 6.0, 8.0, 10.0]
