"""Tests for the trace replayer and its simulation driver."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.core.requests import OperationType
from repro.pfs import PFS_MOUNT
from repro.workloads.replayer import INTERLEAVE, KIND_TO_OP, ReplayDriver, TraceReplayer


class TestTraceReplayer:
    def test_replay_duration_accelerated(self, small_trace):
        rep = TraceReplayer(small_trace, acceleration=60.0)
        assert rep.replay_duration == pytest.approx(10.0)  # 10 min -> 10 s

    def test_demand_is_scaled_rate_curve(self, small_trace):
        """Replay second t runs at the original rate of minute t, halved."""
        rep = TraceReplayer(small_trace, acceleration=60.0, rate_scale=0.5)
        demand = rep.demand(0.0, 1.0)
        # Sample 0 has 3000 getattr per minute = 50/s; halved = 25/s.
        assert demand["getattr"] == pytest.approx(25.0)
        assert demand["open"] == pytest.approx(5.0)

    def test_total_conserved_under_any_tick(self, small_trace):
        rep = TraceReplayer(small_trace, acceleration=60.0, rate_scale=0.5)
        for dt in (0.25, 0.5, 1.0, 3.0):
            total = 0.0
            t = 0.0
            while t < rep.replay_duration:
                total += sum(rep.demand(t, dt).values())
                t += dt
            assert total == pytest.approx(rep.total_ops(), rel=1e-9)

    def test_kind_filter(self, small_trace):
        rep = TraceReplayer(small_trace, kinds=("open",))
        assert rep.kinds == ("open",)
        assert set(rep.demand(0.0, 1.0)) == {"open"}
        assert rep.total_ops() == rep.total_ops("open")

    def test_unknown_kind_rejected(self, small_trace):
        with pytest.raises(ConfigError):
            TraceReplayer(small_trace, kinds=("frobnicate",))

    def test_invalid_params(self, small_trace):
        with pytest.raises(ConfigError):
            TraceReplayer(small_trace, acceleration=0.0)
        with pytest.raises(ConfigError):
            TraceReplayer(small_trace, rate_scale=0.0)
        rep = TraceReplayer(small_trace)
        with pytest.raises(ConfigError):
            rep.demand(0.0, 0.0)

    def test_demand_beyond_trace_is_zero(self, small_trace):
        rep = TraceReplayer(small_trace, acceleration=60.0)
        assert sum(rep.demand(1e6, 1.0).values()) == 0.0

    def test_kind_to_op_covers_mds_kinds(self):
        from repro.core.requests import MDS_OP_KINDS

        assert set(KIND_TO_OP) == set(MDS_OP_KINDS)

    def test_each_kind_is_the_mds_kind_of_its_op(self):
        # The world routes a replay row by its kind, not by its op.
        from repro.core.requests import MDS_KIND_BY_OP

        for kind, op in KIND_TO_OP.items():
            assert MDS_KIND_BY_OP[op] == kind


class TestReplayDriver:
    def test_submits_everything_then_finishes(self, env, small_trace):
        rep = TraceReplayer(small_trace, acceleration=60.0, rate_scale=0.5)
        received = []
        driver = ReplayDriver(env, rep, received.append, job_id="jX")
        env.run(until=15.0)
        assert driver.finished
        assert driver.total_submitted == pytest.approx(rep.total_ops())
        assert sum(r.count for r in received) == pytest.approx(rep.total_ops())

    def test_requests_carry_job_and_mount(self, env, small_trace):
        rep = TraceReplayer(small_trace, kinds=("open",))
        received = []
        ReplayDriver(env, rep, received.append, job_id="jX")
        env.run(until=2.0)
        assert received
        for req in received:
            assert req.job_id == "jX"
            assert req.path.startswith(f"{PFS_MOUNT}/jX/")
            assert req.op is OperationType.OPEN

    def test_delayed_start(self, env, small_trace):
        rep = TraceReplayer(small_trace)
        received = []
        driver = ReplayDriver(env, rep, received.append, start=5.0)
        env.run(until=4.0)
        assert received == []
        env.run(until=20.0)
        assert driver.finished
        assert driver.finished_at == pytest.approx(15.0)

    def test_interleave_slices_within_tick(self, env, small_trace):
        rep = TraceReplayer(small_trace, acceleration=60.0)
        received = []
        ReplayDriver(env, rep, received.append)
        env.run(until=0.5)  # one tick only
        kinds_seen = [r.op for r in received]
        # 4 kinds x INTERLEAVE slices, round-robin: the first 4 ops differ.
        assert len(received) == 4 * INTERLEAVE
        assert len(set(kinds_seen[:4])) == 4

    def test_per_kind_accounting(self, env, small_trace):
        rep = TraceReplayer(small_trace, acceleration=60.0, rate_scale=1.0)
        driver = ReplayDriver(env, rep, lambda r: None)
        env.run(until=15.0)
        for kind in small_trace.kinds:
            assert driver.submitted[kind] == pytest.approx(rep.total_ops(kind))
