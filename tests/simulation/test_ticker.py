"""Tests for the periodic Ticker."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.simulation.ticker import Ticker


class TestTicker:
    def test_fires_every_period(self, env):
        times = []
        Ticker(env, 2.0, times.append)
        env.run(until=7.0)
        assert times == [0.0, 2.0, 4.0, 6.0]

    def test_delayed_start(self, env):
        times = []
        Ticker(env, 1.0, times.append, start=3.0)
        env.run(until=5.5)
        assert times == [3.0, 4.0, 5.0]

    def test_stop_halts_future_ticks(self, env):
        times = []
        ticker = Ticker(env, 1.0, times.append)
        env.call_at(2.5, ticker.stop)
        env.run(until=10.0)
        assert times == [0.0, 1.0, 2.0]
        assert ticker.stopped

    def test_tick_count(self, env):
        ticker = Ticker(env, 1.0, lambda t: None)
        env.run(until=4.5)
        assert ticker.ticks == 5  # t = 0..4

    def test_callback_error_propagates(self, env):
        def boom(now):
            raise RuntimeError("tick failed")

        Ticker(env, 1.0, boom)
        with pytest.raises(RuntimeError, match="tick failed"):
            env.run(until=2.0)

    def test_invalid_period(self, env):
        with pytest.raises(SimulationError):
            Ticker(env, 0.0, lambda t: None)

    def test_invalid_start(self, env):
        with pytest.raises(SimulationError):
            Ticker(env, 1.0, lambda t: None, start=-1.0)

    def test_two_tickers_stable_order(self, env):
        log = []
        Ticker(env, 1.0, lambda t: log.append("a"))
        Ticker(env, 1.0, lambda t: log.append("b"))
        env.run(until=2.5)
        assert log == ["a", "b"] * 3


class TestTickerPhases:
    def test_producer_consumer_sampler_ordering(self, env):
        """The canonical pipeline: produce < drain < sample, every tick,
        regardless of creation order or tick period."""
        log = []
        Ticker(env, 1.0, lambda now: log.append(("sample", now)), defer=3)
        Ticker(env, 1.0, lambda now: log.append(("drain", now)), defer=1)

        def start_producer():
            Ticker(env, 1.0, lambda now: log.append(("produce", now)))

        env.call_at(0.0, start_producer)
        env.run(until=3.5)
        per_tick = {}
        for name, t in log:
            per_tick.setdefault(t, []).append(name)
        for t, names in per_tick.items():
            assert names == ["produce", "drain", "sample"], (t, names)

    def test_mixed_periods_preserve_phase_order(self, env):
        """A 5s-period sampler still runs after the 1s-period drainer at
        shared instants (the bug class the phase system exists for)."""
        log = []
        Ticker(env, 5.0, lambda now: log.append(("sample", now)), defer=3)
        Ticker(env, 1.0, lambda now: log.append(("drain", now)), defer=1)
        env.run(until=10.5)
        for t in (0.0, 5.0, 10.0):
            names = [n for n, tt in log if tt == t]
            assert names == ["drain", "sample"], t
