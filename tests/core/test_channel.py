"""Tests for enforcement channels (queue + bucket + rate window)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.core.channel import Channel
from repro.core.requests import OperationType, Request
from repro.telemetry import Telemetry, TelemetryConfig


def req(count=1.0, op=OperationType.OPEN):
    return Request(op, path="/pfs/f", count=count)


class TestBasics:
    def test_needs_id(self):
        with pytest.raises(ConfigError):
            Channel("")

    def test_unlimited_drains_everything(self):
        ch = Channel("c")
        ch.enqueue(req(1000.0), 0.0)
        assert ch.drain(0.0) == 1000.0
        assert ch.backlog == 0.0

    def test_rate_limits_grants(self):
        ch = Channel("c", rate=10.0)
        ch.enqueue(req(100.0), 0.0)
        assert ch.drain(0.0) == pytest.approx(10.0)  # initial burst
        assert ch.drain(1.0) == pytest.approx(10.0)
        assert ch.backlog == pytest.approx(80.0)

    def test_fifo_order(self):
        ch = Channel("c", rate=5.0)
        ch.enqueue(req(3.0, OperationType.OPEN), 0.0)
        ch.enqueue(req(3.0, OperationType.CLOSE), 0.0)
        out = []
        ch.drain(0.0, sink=out.append)
        assert [r.op for r in out] == [OperationType.OPEN, OperationType.CLOSE]
        assert out[0].count == 3.0
        assert out[1].count == 2.0  # split at the token boundary

    def test_set_rate_applies(self):
        ch = Channel("c", rate=1.0)
        ch.enqueue(req(100.0), 0.0)
        ch.drain(0.0)
        ch.set_rate(50.0, now=0.0)
        assert ch.drain(1.0) == pytest.approx(50.0)


class TestStats:
    def test_windows_reset_on_collect(self):
        ch = Channel("c", rate=10.0)
        ch.enqueue(req(30.0), 0.0)
        ch.drain(0.0)
        granted, enqueued, backlog = ch.collect()
        assert granted == pytest.approx(10.0)
        assert enqueued == pytest.approx(30.0)
        assert backlog == pytest.approx(20.0)
        granted2, enqueued2, _ = ch.collect()
        assert granted2 == 0.0
        assert enqueued2 == 0.0

    def test_cumulative_stats_persist(self):
        # The backlog is the one counter a collect does not reset.
        ch = Channel("c", rate=10.0)
        ch.enqueue(req(30.0), 0.0)
        ch.drain(0.0)
        ch.collect()
        assert ch.backlog == 20.0
        assert ch.collect() == (0.0, 0.0, 20.0)
        ch.drain(1.0)
        assert ch.collect() == (pytest.approx(10.0), 0.0, pytest.approx(10.0))
        assert ch.backlog == pytest.approx(10.0)

    def test_queue_depth(self):
        ch = Channel("c", rate=1.0)
        for _ in range(5):
            ch.enqueue(req(1.0), 0.0)
        assert ch.queue_depth == 5


# -- conservation invariant -------------------------------------------------------

batches = st.lists(st.floats(min_value=0.1, max_value=1000.0), min_size=1, max_size=30)


@settings(max_examples=150, deadline=None)
@given(rate=st.floats(min_value=0.1, max_value=1e4), counts=batches)
def test_ops_conserved(rate, counts):
    """enqueued == granted + backlog at all times; grants respect the rate."""
    ch = Channel("c", rate=rate)
    sunk = []
    now = 0.0
    total_in = 0.0
    total_out = 0.0
    for count in counts:
        ch.enqueue(req(count), now)
        total_in += count
        now += 0.5
        total_out += ch.drain(now, sink=sunk.append)
        assert total_in == pytest.approx(total_out + ch.backlog)
    assert sum(r.count for r in sunk) == pytest.approx(total_out)
    # Long-run rate bound: initial burst (capacity=rate) + rate * elapsed.
    assert total_out <= rate + rate * now + 1e-6 * max(1.0, total_out)


class TestWaitAccounting:
    """Queue waits are observed once, by the telemetry histogram (and the
    ``queue.wait`` span); the channel keeps no wait statistics of its own."""

    @staticmethod
    def _observed(ch: Channel):
        telemetry = Telemetry(TelemetryConfig(seed=0, trace=False))
        ch.attach_telemetry(telemetry, "s0")
        histogram = telemetry.registry.get(
            "padll_channel_queue_wait_seconds", stage="s0", channel=ch.channel_id
        )
        return telemetry, histogram

    def test_mean_and_max_wait(self):
        ch = Channel("c", rate=10.0, burst=10.0)
        telemetry, histogram = self._observed(ch)
        ch.enqueue(req(10.0), 0.0)  # drains instantly (burst)
        ch.enqueue(req(10.0), 0.0)  # waits one second
        ch.drain(0.0, telemetry=telemetry)
        assert (histogram.count, histogram.total) == (10.0, 0.0)
        ch.drain(1.0, telemetry=telemetry)
        # First batch waited 0 s, second waited 1 s: mean 0.5, worst in
        # the (0.5, 1.0] bucket.
        assert histogram.total / histogram.count == pytest.approx(0.5)
        buckets = histogram.bucket_counts()
        assert buckets[histogram.bounds.index(1.0)] == 10.0
        assert sum(buckets[histogram.bounds.index(1.0) + 1:]) == 0.0

    def test_split_batches_keep_arrival_time(self):
        ch = Channel("c", rate=4.0, burst=4.0)
        telemetry, histogram = self._observed(ch)
        ch.enqueue(req(8.0), 0.0)
        ch.drain(0.0, telemetry=telemetry)  # 4 granted at wait 0
        ch.drain(2.0, telemetry=telemetry)  # the split rest, 4 at wait 2
        assert (histogram.count, histogram.total) == (8.0, 8.0)
        buckets = histogram.bucket_counts()
        assert buckets[0] == 4.0
        assert buckets[histogram.bounds.index(2.0)] == 4.0

    def test_empty_channel_zero_wait(self):
        ch = Channel("c", rate=1.0)
        telemetry, histogram = self._observed(ch)
        assert ch.drain(1.0, telemetry=telemetry) == 0.0
        assert (histogram.count, histogram.total) == (0.0, 0.0)
