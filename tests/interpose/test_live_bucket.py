"""Tests for the thread-safe wall-clock token bucket (fake-clocked)."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ConfigError
from repro.interpose.live_bucket import LiveTokenBucket


class FakeClock:
    """A controllable clock whose sleep() advances time."""

    def __init__(self) -> None:
        self.t = 0.0

    def now(self) -> float:
        return self.t

    def sleep(self, duration: float) -> None:
        self.t += max(duration, 1e-6)


def bucket(rate, capacity=None, clock=None):
    clock = clock or FakeClock()
    return (
        LiveTokenBucket(rate, capacity, clock=clock.now, sleep=clock.sleep),
        clock,
    )


class TestLiveBucket:
    def test_try_acquire_burst(self):
        b, _ = bucket(10.0)
        assert b.try_acquire(10.0)
        assert not b.try_acquire(1.0)

    def test_acquire_blocks_exactly_long_enough(self):
        b, clock = bucket(10.0)
        assert b.try_acquire(10.0)  # drain the burst
        assert b.acquire(5.0)
        assert clock.t == pytest.approx(0.5, abs=0.01)

    def test_acquire_timeout_expires(self):
        b, clock = bucket(1.0, capacity=1.0)
        assert b.try_acquire(1.0)
        assert not b.acquire(100.0, timeout=0.5)
        assert clock.t <= 0.6

    def test_negative_timeout_rejected(self):
        b, _ = bucket(1.0)
        with pytest.raises(ConfigError):
            b.acquire(1.0, timeout=-1.0)

    def test_set_rate_takes_effect(self):
        b, clock = bucket(1.0)
        b.try_acquire(1.0)
        b.set_rate(100.0)
        b.acquire(10.0)
        assert clock.t <= 0.2  # refilled at the new fast rate
        assert b.rate == 100.0

    def test_tokens_view(self):
        b, clock = bucket(10.0, capacity=10.0)
        b.try_acquire(10.0)
        clock.t = 0.5
        assert b.tokens() == pytest.approx(5.0)

    def test_concurrent_acquires_respect_rate(self):
        """Threads hammering the bucket never over-draw the allowance."""
        clock = FakeClock()
        lock = threading.Lock()

        def locked_sleep(d):
            with lock:
                clock.t += max(d, 1e-6)

        b = LiveTokenBucket(100.0, 100.0, clock=clock.now, sleep=locked_sleep)
        granted = []

        def worker():
            for _ in range(20):
                b.acquire(5.0)
                granted.append(5.0)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
            assert not t.is_alive(), "a worker is still acquiring after 10 s"
        total = sum(granted)
        elapsed = clock.t
        assert total == 400.0
        # Allowance: initial burst 100 + 100/s * elapsed.
        assert total <= 100.0 + 100.0 * elapsed + 1e-6
