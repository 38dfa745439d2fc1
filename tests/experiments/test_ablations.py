"""Short-scale tests of the ablation sweeps and cost-aware experiment."""

from __future__ import annotations

import pytest

from repro.experiments.ablations import (
    sweep_burst_size,
    sweep_control_lag,
    sweep_loop_interval,
)
from repro.experiments.cost_aware import run_cost_aware


class TestControlLag:
    def test_lag_increases_excess(self):
        points = sweep_control_lag(latencies=(0.0, 10.0), duration=300.0)
        assert points[0].excess_ops < points[1].excess_ops
        assert points[0].latency == 0.0

    def test_zero_lag_nearly_compliant(self):
        (point,) = sweep_control_lag(latencies=(0.0,), duration=300.0)
        assert point.violation_fraction <= 0.03


class TestBurstSize:
    def test_burst_increases_mds_queueing(self):
        points = sweep_burst_size(burst_seconds=(1.0, 8.0), duration=300.0)
        assert points[0].peak_queue_delay < points[1].peak_queue_delay
        assert points[1].peak_over_cap > points[0].peak_over_cap


class TestLoopInterval:
    def test_returns_all_points(self):
        out = sweep_loop_interval(intervals=(1.0, 30.0), duration=300.0)
        assert set(out) == {1.0, 30.0}
        assert all(v > 0 for v in out.values())


class TestCostAware:
    def test_ops_fair_overloads_cost_aware_does_not(self):
        ops_fair = run_cost_aware("ops-fair", seed=0, duration=420.0)
        cost_aware = run_cost_aware("cost-aware", seed=0, duration=420.0)
        assert ops_fair.mds_peak_queue_delay > cost_aware.mds_peak_queue_delay
        assert not cost_aware.mds_degraded
        # Cheap jobs are not starved by cost-awareness.
        assert (
            cost_aware.delivered_ops["light1"]
            >= ops_fair.delivered_ops["light1"] * 0.9
        )

    def test_unknown_allocator(self):
        with pytest.raises(ValueError):
            run_cost_aware("mystery")


class TestFailover:
    def test_protected_standby_survives_short(self):
        from repro.experiments.failover import run_failover

        unprotected = run_failover(False, seed=0, duration=1500.0)
        protected = run_failover(True, seed=0, duration=1500.0)
        assert not unprotected.standby_survived
        assert protected.standby_survived
        assert protected.served_ops > unprotected.served_ops
