"""Unit tests for the metrics registry (counters / gauges / histograms)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.telemetry import MetricsRegistry


class TestInterning:
    def test_same_name_and_labels_return_same_object(self):
        registry = MetricsRegistry()
        a = registry.counter("ops_total", stage="s0")
        b = registry.counter("ops_total", stage="s0")
        assert a is b

    def test_distinct_labels_are_distinct_metrics(self):
        registry = MetricsRegistry()
        a = registry.counter("ops_total", stage="s0")
        b = registry.counter("ops_total", stage="s1")
        assert a is not b
        assert len(registry) == 2

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        a = registry.gauge("g", x="1", y="2")
        b = registry.gauge("g", y="2", x="1")
        assert a is b

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ConfigError):
            registry.gauge("m")

    def test_items_in_insertion_order(self):
        registry = MetricsRegistry()
        registry.counter("b_metric")
        registry.gauge("a_metric")
        names = [name for name, _labels, _kind, _m in registry.items()]
        assert names == ["b_metric", "a_metric"]


class TestCounterGauge:
    def test_counter_accumulates(self):
        counter = MetricsRegistry().counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_gauge_holds_last_value(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(4.0)
        gauge.set(-1.5)
        assert gauge.value == -1.5


class TestHistogram:
    def test_observe_routes_to_buckets(self):
        hist = MetricsRegistry().histogram("h", bounds=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(5.0)
        hist.observe(100.0)
        pairs = hist.cumulative()
        assert pairs[0] == (1.0, 1.0)
        assert pairs[1] == (10.0, 2.0)
        assert pairs[2] == (float("inf"), 3.0)
        assert hist.count == 3.0
        assert hist.total == 105.5

    def test_weighted_observation(self):
        hist = MetricsRegistry().histogram("h", bounds=(1.0,))
        hist.observe(0.2, n=50.0)
        assert hist.count == 50.0
        assert hist.cumulative()[0] == (1.0, 50.0)

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ConfigError):
            MetricsRegistry().histogram("h", bounds=(2.0, 1.0))


class TestAbsolutesMerge:
    """A stage host ships :meth:`absolutes`; the service folds each
    connection's rows in with :meth:`merge_absolutes` against what that
    connection reported before."""

    @staticmethod
    def _host(ops: float, waits=()):
        registry = MetricsRegistry()
        registry.counter("ops_total", stage="job0/s0").inc(ops)
        registry.gauge("rate", stage="job0/s0").set(ops / 10)
        hist = registry.histogram("wait", bounds=(1.0, 10.0), stage="job0/s0")
        for value in waits:
            hist.observe(value)
        return registry.absolutes()

    def test_absolutes_rows(self):
        rows = self._host(4.0, waits=(0.5, 20.0))
        assert rows == [
            ["ops_total", [["stage", "job0/s0"]], "counter", 4.0],
            ["rate", [["stage", "job0/s0"]], "gauge", 0.4],
            [
                "wait",
                [["stage", "job0/s0"]],
                "histogram",
                {"bounds": [1.0, 10.0], "counts": [1.0, 0.0, 1.0], "total": 20.5},
            ],
        ]

    def test_two_connections_aggregate(self):
        service = MetricsRegistry()
        first, second = {}, {}
        service.merge_absolutes(self._host(3.0), first)
        service.merge_absolutes(self._host(5.0), second)
        service.merge_absolutes(self._host(7.0), first)
        assert service.counter("ops_total", stage="job0/s0").value == 12.0
        # Gauges are last-write-wins.
        assert service.gauge("rate", stage="job0/s0").value == 0.7

    def test_a_restarted_connection_counts_from_zero(self):
        service = MetricsRegistry()
        service.merge_absolutes(self._host(30.0), {})
        # The respawned process is a new connection: its absolutes are
        # all new, even below what its predecessor had reported.
        restarted = {}
        service.merge_absolutes(self._host(2.0), restarted)
        service.merge_absolutes(self._host(6.0), restarted)
        assert service.counter("ops_total", stage="job0/s0").value == 36.0

    def test_histograms_merge_their_deltas(self):
        service = MetricsRegistry()
        seen = {}
        service.merge_absolutes(self._host(1.0, waits=(0.5,)), seen)
        service.merge_absolutes(self._host(1.0, waits=(0.5, 5.0, 50.0)), seen)
        hist = service.histogram("wait", bounds=(1.0, 10.0), stage="job0/s0")
        assert hist.bucket_counts() == (1.0, 1.0, 1.0)
        assert hist.count == 3.0
        assert hist.total == 55.5
        # An unchanged push adds nothing.
        service.merge_absolutes(self._host(1.0, waits=(0.5, 5.0, 50.0)), seen)
        assert hist.count == 3.0
