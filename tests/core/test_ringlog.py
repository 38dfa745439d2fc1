"""RingLog: bounded audit trails with list semantics."""

from __future__ import annotations

import sys
import threading
from itertools import repeat

import numpy as np
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
        assert log.snapshot()[0] == (1.0, "a")
        assert log.snapshot(1) == [(2.0, "b")]
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
        a, b = RingLog(), RingLog(capacity=10)
        a.extend([1, 2])
        b.extend([1, 2])
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
        log = RingLog(capacity=capacity)
        log.extend(initial)
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
        log = RingLog(capacity=3)
        log.extend(range(5))
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
        assert log.snapshot(1) == [(39, 4_999)]


def _columns(first, n, head):
    """``(head, keys, values)`` for rows ``first .. first + n - 1``.

    Keys are the row numbers (so a reader can check runs are contiguous)
    and values carry them too, with a signed zero and a subnormal mixed in
    so a row that changed bits would show in its ``repr``.
    """
    keys = tuple(range(first, first + n))
    values = np.array(keys, dtype=float)
    values[::5] = -0.0
    values[1::7] = 5e-324
    return head, keys, values


def _script(c):
    """Operations for capacity ``c``: ``("append", row_count)`` / ``("rows", n)``."""
    return {
        "fits": [("append", 1), ("rows", max(1, c // 2))],
        "straddles": [("rows", c // 2 + 1), ("append", 2), ("rows", c // 2 + 1)],
        "longer-than-capacity": [("append", 3), ("rows", c + 3)],
        "interleaved": [
            ("rows", 3), ("append", 2), ("rows", c - 1 or 1), ("append", 1),
            ("rows", 5), ("append", c), ("rows", 2), ("append", 1),
        ],
        "empty-keys": [("append", 2), ("rows", 0), ("append", 1), ("rows", 0)],
    }


def _assert_same(log, reference):
    n = len(reference)
    assert len(log) == n and log.dropped == reference.dropped
    assert bool(log) == bool(reference)
    assert log == reference and log == list(reference) and log == tuple(reference)
    for limit in (None, -1, 0, 1, 5, n - 1, n, n + 5):
        # repr: the same float bits (-0.0, subnormals), not just ==.
        assert repr(log.snapshot(limit)) == repr(reference.snapshot(limit))


class TestBlockIsItsRows:
    """``extend_rows(h, keys, values)`` reads back exactly as
    ``extend(zip(repeat(h), keys, values.tolist()))``."""

    @pytest.mark.parametrize("capacity", [None, 1, 7, 65_536])
    @pytest.mark.parametrize(
        "case", ["fits", "straddles", "longer-than-capacity", "interleaved", "empty-keys"]
    )
    def test_reads_match_the_row_by_row_log(self, capacity, case):
        log = RingLog(capacity=capacity)
        reference = RingLog(capacity=capacity)
        every_row = []  # the plain-list model both logs must keep the tail of
        for step, (op, n) in enumerate(_script(capacity or 10)[case]):
            first = len(every_row)
            if op == "append":
                for row in range(first, first + n):
                    log.append(("one", row, float(row)))
                    reference.append(("one", row, float(row)))
                    every_row.append(("one", row, float(row)))
            else:
                head, keys, values = _columns(first, n, float(step))
                log.extend_rows(head, keys, values)
                reference.extend(zip(repeat(head), keys, values.tolist()))
                every_row.extend(zip(repeat(head), keys, values.tolist()))
            _assert_same(log, reference)
            kept = every_row[-capacity:] if capacity else every_row
            assert log == kept
        # Same objects and float bits (-0.0, subnormals), not just ==.
        assert [repr(row) for row in log] == [repr(row) for row in kept]
        assert len(log) + log.dropped == len(every_row)

    def test_a_copy_between_showing_rows_and_cutting_holds_capacity(self, monkeypatch):
        # A writer shows a block before it cuts the oldest rows; a reader
        # scheduled in between must still get the newest ``capacity``.
        copies = []
        grow = RingLog._grow

        def grow_after_a_copy(log, n):
            copies.append(log.snapshot())
            grow(log, n)

        monkeypatch.setattr(RingLog, "_grow", grow_after_a_copy)
        log = RingLog(capacity=5)
        log.extend(range(5))
        log.extend_rows(9.0, (7, 8), np.array([7.0, 8.0]))
        newest = [2, 3, 4, (9.0, 7, 7.0), (9.0, 8, 8.0)]
        assert copies[-1] == newest and log.snapshot() == newest

    def test_readers_get_contiguous_runs_while_blocks_are_cut(self):
        # Capacity 7 001 against blocks of 13 .. 1 499 rows and single
        # appends: nearly every write cuts the oldest block mid-way.  The
        # reader checks each copy is one contiguous, in-order run of row
        # numbers -- never a skipped or duplicated row.
        capacity = 7_001
        log = RingLog(capacity=capacity)
        stop = threading.Event()
        failures = []
        copies = [0]

        def read():
            limits = (None, 10, 3_000)
            while not stop.is_set():
                limit = limits[copies[0] % len(limits)]
                rows = log.snapshot(limit)
                ids = [row[1] for row in rows]
                contiguous = not ids or ids == list(range(ids[0], ids[0] + len(ids)))
                bound = capacity if limit is None else limit
                if not contiguous or len(ids) > bound:
                    failures.append((limit, len(ids), ids[:3]))
                # A key paired with another row's value would show here.
                if any(row[2] not in (row[1], 0.0, 5e-324) for row in rows):
                    failures.append(("value", limit))
                copies[0] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        reader = threading.Thread(target=read)
        reader.start()
        next_row = 0
        try:
            for round_no in range(400):
                n = (13, 1_499, 257, 1_000)[round_no % 4]
                log.extend_rows(*_columns(next_row, n, float(round_no)))
                next_row += n
                if round_no % 3 == 0:
                    log.append(("one", next_row, float(next_row)))
                    next_row += 1
        finally:
            stop.set()
            reader.join(timeout=30.0)
            sys.setswitchinterval(interval)
        assert not reader.is_alive()
        assert copies[0] > 0 and not failures
        assert len(log) == capacity and log.dropped == next_row - capacity
        rows = log.snapshot()
        assert rows[0][1] == next_row - capacity and rows[-1][1] == next_row - 1


class TestControlPlaneBoundedLogs:
    """Regression: enforcement_log / evictions must not grow unboundedly."""

    def test_logs_are_bounded_ring_buffers(self):
        cp = ControlPlane(config=ControlPlaneConfig(history_limit=8))
        for i in range(30):
            cp.enforcement_log.append((float(i), "job", 1.0))
        assert len(cp.enforcement_log) == 8
        assert cp.enforcement_log.dropped == 22
        assert cp.enforcement_log.snapshot()[0] == (22.0, "job", 1.0)

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
