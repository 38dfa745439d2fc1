"""RingLog: bounded audit trails with list semantics."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ConfigError
from repro.core.controller import ControlPlane, ControlPlaneConfig
from repro.core.ringlog import RingLog

from tests.core.test_controller import make_stage


class TestRingLog:
    def test_list_semantics(self):
        log = RingLog()
        log.append((1.0, "a"))
        log.append((2.0, "b"))
        assert len(log) == 2
        assert list(log) == [(1.0, "a"), (2.0, "b")]
        assert log == [(1.0, "a"), (2.0, "b")]
        assert log == ((1.0, "a"), (2.0, "b"))
        assert log[0] == (1.0, "a")
        assert log[-1] == (2.0, "b")
        assert log[0:1] == [(1.0, "a")]
        assert tuple(log) == ((1.0, "a"), (2.0, "b"))
        assert bool(log)
        assert not RingLog()

    def test_capacity_drops_oldest(self):
        log = RingLog(capacity=3)
        for i in range(5):
            log.append(i)
        assert list(log) == [2, 3, 4]
        assert len(log) == 3
        assert log.dropped == 2
        assert log != [0, 1, 2, 3, 4]

    def test_unbounded_by_default(self):
        log = RingLog()
        log.extend(range(100_000))
        assert len(log) == 100_000
        assert log.dropped == 0

    def test_invalid_capacity(self):
        with pytest.raises(ConfigError):
            RingLog(capacity=0)

    def test_equality_between_ringlogs(self):
        a = RingLog(initial=[1, 2])
        b = RingLog(capacity=10, initial=[1, 2])
        assert a == b
        b.append(3)
        assert a != b


def appended(capacity, initial, items):
    """What the per-item loop leaves: the reference ``extend`` must equal."""
    log = RingLog(capacity=capacity)
    for item in list(initial) + list(items):
        log.append(item)
    return log


class TestExtendIsAppendInALoop:
    #: capacity 8 holding 5: n=3 exactly fills, 6 overflows by 3, 11 is
    #: alone longer than the capacity; 0 is the empty extend.
    @pytest.mark.parametrize("capacity", [None, 8])
    @pytest.mark.parametrize("n", [0, 3, 6, 11])
    @pytest.mark.parametrize("shape", [list, tuple, iter])
    def test_entries_order_len_and_dropped(self, capacity, n, shape):
        initial = [("old", i) for i in range(5)]
        items = [("new", i) for i in range(n)]
        log = RingLog(capacity=capacity, initial=initial)
        log.extend(shape(items))
        reference = appended(capacity, initial, items)
        assert list(log) == list(reference)
        assert len(log) == len(reference)
        assert log.dropped == reference.dropped
        if capacity is not None:
            assert log.dropped == max(0, 5 + n - capacity)

    def test_repeated_extends_keep_counting(self):
        log = RingLog(capacity=4)
        reference = appended(4, [], [])
        for start in range(0, 30, 3):
            log.extend(i for i in range(start, start + 3))
            for i in range(start, start + 3):
                reference.append(i)
            assert (list(log), log.dropped) == (list(reference), reference.dropped)

    def test_initial_longer_than_capacity_counts_as_dropped(self):
        log = RingLog(capacity=3, initial=range(5))
        assert list(log) == [2, 3, 4] and log.dropped == 2

    @pytest.mark.parametrize("capacity", [None, 50_000])
    def test_snapshot_returns_while_a_writer_extends(self, capacity):
        # list(deque) raises RuntimeError when the deque changes size under
        # it; snapshot() retries.  An unbounded log runs the generator
        # inside deque.extend, so the writer yields the interpreter between
        # items and the reader really does meet an extend in flight.
        log = RingLog(capacity=capacity)
        stop = threading.Event()
        lengths = []

        def read():
            while not stop.is_set():
                lengths.append(len(log.snapshot(limit=10)))

        reader = threading.Thread(target=read)
        reader.start()
        try:
            for round_no in range(40):
                log.extend((round_no, i) for i in range(5_000))
        finally:
            stop.set()
            reader.join(timeout=30.0)
        assert not reader.is_alive()
        assert lengths and max(lengths) <= 10
        assert len(log) + log.dropped == 40 * 5_000
        assert log.dropped == (0 if capacity is None else 40 * 5_000 - capacity)
        assert log[-1] == (39, 4_999)


class TestControlPlaneBoundedLogs:
    """Regression: enforcement_log / evictions must not grow unboundedly."""

    def test_logs_are_bounded_ring_buffers(self):
        cp = ControlPlane(config=ControlPlaneConfig(history_limit=8))
        for i in range(30):
            cp.enforcement_log.append((float(i), "job", 1.0))
        assert len(cp.enforcement_log) == 8
        assert cp.enforcement_log.dropped == 22
        assert cp.enforcement_log[0] == (22.0, "job", 1.0)

    def test_live_loop_leak_is_bounded(self):
        """Many ticks with an algorithm enforce per tick; the trail stays
        within the configured bound instead of leaking one entry per tick."""
        from repro.core.algorithms import ProportionalSharing

        cp = ControlPlane(
            config=ControlPlaneConfig(history_limit=16),
            algorithm=ProportionalSharing(capacity=100.0),
        )
        cp.register(make_stage("s0", "jobA"))
        for t in range(200):
            cp.tick(float(t))
        assert cp.loop_iterations == 200
        assert len(cp.enforcement_log) == 16
        assert cp.enforcement_log.dropped == 200 - 16

    def test_default_preserves_experiment_semantics(self):
        # Paper-scale experiments log ~14.4K entries; the default bound
        # must keep every one of them (golden digests depend on it).
        config = ControlPlaneConfig()
        assert config.history_limit is not None
        assert config.history_limit >= 20_000

    def test_unbounded_opt_out(self):
        cp = ControlPlane(config=ControlPlaneConfig(history_limit=None))
        assert cp.enforcement_log.capacity is None
