"""Tests for the probe collector."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.monitoring.collector import Collector, Probe
from repro.pfs.mds import MDSConfig, MetadataServer


def gauge_probe(name, fn):
    """A probe sampling one callable into the series ``name``."""
    return Probe(name, lambda now, period: {"": float(fn())})


class TestCollector:
    def test_callable_probe_sampling(self, env):
        collector = Collector(env, period=1.0)
        box = {"v": 0.0}
        collector.add_probe(gauge_probe("gauge", lambda: box["v"]))
        env.call_at(1.5, lambda: box.__setitem__("v", 7.0))
        env.run(until=3.5)
        series = collector.series["gauge"]
        assert list(series.values()) == [0.0, 0.0, 7.0, 7.0]

    def test_duplicate_probe_rejected(self, env):
        collector = Collector(env, period=1.0)
        probe = gauge_probe("g", lambda: 0.0)
        collector.add_probe(probe)
        with pytest.raises(ConfigError):
            collector.add_probe(probe)

    def test_invalid_period(self, env):
        with pytest.raises(ConfigError):
            Collector(env, period=0.0)

    def test_mds_probe_reports_rates(self, env):
        mds = MetadataServer(config=MDSConfig(capacity=1000.0))
        collector = Collector(env, period=2.0)
        collector.add_probe(Collector.mds_probe("mds", mds))
        mds.offer("getattr", 100.0, 0.0)
        mds.service(0.0, 1.0)
        env.run(until=2.5)  # samples at t=0 and t=2
        total = collector.series["mds.total"]
        # The t=0 sample picks up the already-served 100 ops over the 2 s
        # period: 50 ops/s; by t=2 the window is empty again.
        assert total.values()[0] == pytest.approx(50.0)
        assert total.values()[-1] == pytest.approx(0.0)

    def test_stop(self, env):
        collector = Collector(env, period=1.0)
        collector.add_probe(gauge_probe("g", lambda: 1.0))
        env.call_at(2.5, collector.stop)
        env.run(until=10.0)
        assert len(collector.series["g"]) == 3
