"""Tests for the shared experiment harness (small-scale worlds)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.core.algorithms import StaticPartition
from repro.core.policies import ConstantRate, PolicyRule, RuleScope
from repro.core.stage import DataPlaneStage
from repro.experiments.harness import JobSpec, ReplayWorld, Setup


def run_world(setup, small_trace, duration=30.0, algorithm=None, policies=(), **spec_kw):
    world = ReplayWorld(setup, sample_period=1.0, algorithm=algorithm)
    world.add_job(
        JobSpec(job_id="j1", trace=small_trace, setup=setup, **spec_kw)
    )
    for rule in policies:
        world.install_policy(rule)
    return world.run(duration)


class TestBaseline:
    def test_everything_delivered_unthrottled(self, small_trace):
        result = run_world(Setup.BASELINE, small_trace)
        job = result.jobs["j1"]
        assert job.completed_at is not None
        assert job.delivered_ops == pytest.approx(job.submitted_ops)

    def test_job_series_matches_trace_curve(self, small_trace):
        result = run_world(Setup.BASELINE, small_trace)
        times, rates = result.job_rate_series("j1")
        # Replay second 3 plays sample 3 (the busiest: 21600/min = 360/s,
        # halved = 180/s); the sampler observes the same tick's delivery.
        idx = np.searchsorted(times, 3.0)
        assert rates[idx] == pytest.approx(180.0, rel=0.05)


class TestPassthrough:
    def test_matches_baseline_exactly(self, small_trace):
        base = run_world(Setup.BASELINE, small_trace)
        passthrough = run_world(Setup.PASSTHROUGH, small_trace)
        b = base.job_rate_series("j1")[1]
        p = passthrough.job_rate_series("j1")[1]
        n = min(len(b), len(p))
        assert np.allclose(b[:n], p[:n], rtol=1e-9)

    def test_requests_do_flow_through_stage(self, small_trace):
        world = ReplayWorld(Setup.PASSTHROUGH, sample_period=1.0)
        world.add_job(JobSpec(job_id="j1", trace=small_trace, setup=Setup.PASSTHROUGH))
        result = world.run(30.0)
        # The job registered a stage with the control plane at some point.
        assert result.jobs["j1"].delivered_ops > 0


class TestPadll:
    def test_policy_caps_delivered_rate(self, small_trace):
        rule = PolicyRule(
            name="cap",
            scope=RuleScope(channel_id="metadata"),
            schedule=ConstantRate(50.0),
        )
        result = run_world(Setup.PADLL, small_trace, duration=60.0, policies=[rule])
        times, rates = result.job_rate_series("j1")
        # Steady-state samples never exceed the cap (skip the first sample,
        # which includes the initial unlimited tick before enforcement).
        assert (rates[2:] <= 50.0 * 1.05 + 1.0).all()

    def test_backlog_drains_and_job_completes_late(self, small_trace):
        rule = PolicyRule(
            name="cap",
            scope=RuleScope(channel_id="metadata"),
            schedule=ConstantRate(50.0),
        )
        base = run_world(Setup.BASELINE, small_trace, duration=120.0)
        capped = run_world(Setup.PADLL, small_trace, duration=120.0, policies=[rule])
        # Mean demand ~ 90 ops/s halved = ... above 50: completion is later.
        assert capped.jobs["j1"].completed_at > base.jobs["j1"].completed_at
        assert capped.jobs["j1"].delivered_ops == pytest.approx(
            base.jobs["j1"].delivered_ops, rel=1e-6
        )

    def test_algorithm_drives_rates(self, small_trace):
        result = run_world(
            Setup.PADLL, small_trace, duration=40.0,
            algorithm=StaticPartition(25.0),
        )
        assert result.enforcement_log
        times, rates = result.job_rate_series("j1")
        assert (rates[2:] <= 25.0 * 1.1 + 1.0).all()

    def test_per_op_channel_mode(self, small_trace):
        rule = PolicyRule(
            name="open-cap",
            scope=RuleScope(channel_id="open"),
            schedule=ConstantRate(2.0),
        )
        world = ReplayWorld(Setup.PADLL, sample_period=1.0)
        world.add_job(
            JobSpec(
                job_id="j1", trace=small_trace, setup=Setup.PADLL,
                kinds=("open", "getattr"), channel_mode="per-op",
            )
        )
        world.install_policy(rule)
        result = world.run(60.0)
        _, open_rates = result.series["job.j1.open"]
        _, getattr_rates = result.series["job.j1.getattr"]
        assert (open_rates[2:] <= 2.0 * 1.1 + 0.5).all()
        # getattr unthrottled: reaches well above the open cap.
        assert getattr_rates.max() > 20.0


class TestWorldMechanics:
    def test_staggered_start(self, small_trace):
        world = ReplayWorld(Setup.BASELINE, sample_period=1.0)
        world.add_job(JobSpec(job_id="j1", trace=small_trace, start=0.0))
        world.add_job(JobSpec(job_id="j2", trace=small_trace, start=5.0))
        result = world.run(30.0)
        t1, r1 = result.job_rate_series("j1")
        t2, r2 = result.job_rate_series("j2")
        assert r1[np.searchsorted(t1, 3.0)] > 0
        assert r2[np.searchsorted(t2, 3.0)] == 0.0
        assert result.jobs["j2"].completed_at == pytest.approx(
            result.jobs["j1"].completed_at + 5.0, abs=2.0
        )

    def test_late_stage_reports_windows_from_its_start(self, small_trace, monkeypatch):
        # A job arriving at t = 5 is collected at 5 (an empty window: the
        # loop falls back to its interval) and then once a second; its first
        # window is not the 5 s since the world began.
        windows = []
        collect = DataPlaneStage.collect

        def recording(stage, now):
            stats = collect(stage, now)
            windows.append((stats.job_id, now, stats.window))
            return stats

        monkeypatch.setattr(DataPlaneStage, "collect", recording)
        world = ReplayWorld(Setup.PADLL, algorithm=StaticPartition(1e6))
        world.add_job(JobSpec(job_id="j1", trace=small_trace, setup=Setup.PADLL))
        world.add_job(JobSpec(job_id="j2", trace=small_trace, setup=Setup.PADLL, start=5.0))
        world.run(8.0)
        late = [(now, window) for job, now, window in windows if job == "j2"]
        assert late == [(5.0, 0.0), (6.0, 1.0), (7.0, 1.0), (8.0, 1.0)]

    def test_duplicate_job_rejected(self, small_trace):
        world = ReplayWorld(Setup.BASELINE)
        world.add_job(JobSpec(job_id="j1", trace=small_trace))
        with pytest.raises(ConfigError):
            world.add_job(JobSpec(job_id="j1", trace=small_trace))

    @pytest.mark.parametrize(
        "bad", [{"rate_scale": 0.0}, {"kinds": ("frobnicate",)}],
        ids=["rate_scale", "kinds"],
    )
    def test_bad_job_refused_when_added(self, small_trace, bad):
        # The replayer's checks run in add_job, not at the job's start
        # time with its stages already on the control plane.
        world = ReplayWorld(Setup.PADLL)
        with pytest.raises(ConfigError):
            world.add_job(
                JobSpec(job_id="j1", trace=small_trace, setup=Setup.PADLL,
                        start=30.0, **bad)
            )
        world.run(40.0)
        assert world.controller.jobs == {}

    def test_completed_job_deregisters(self, small_trace):
        world = ReplayWorld(Setup.PADLL, algorithm=StaticPartition(1e6))
        world.add_job(JobSpec(job_id="j1", trace=small_trace, setup=Setup.PADLL))
        world.run(30.0)
        assert world.controller.jobs == {}

    def test_multi_stage_job_splits_rate(self, small_trace):
        world = ReplayWorld(Setup.PADLL, algorithm=StaticPartition(40.0))
        world.add_job(
            JobSpec(job_id="j1", trace=small_trace, setup=Setup.PADLL, n_stages=2)
        )
        result = world.run(20.0)
        # Aggregate job rate still bounded by the (whole-job) 40 ops/s.
        _, rates = result.job_rate_series("j1")
        assert (rates[2:] <= 40.0 * 1.1 + 1.0).all()

    def test_aggregate_helper(self, small_trace):
        world = ReplayWorld(Setup.BASELINE, sample_period=1.0)
        world.add_job(JobSpec(job_id="j1", trace=small_trace))
        world.add_job(JobSpec(job_id="j2", trace=small_trace))
        result = world.run(15.0)
        agg = result.aggregate_job_rate()
        r1 = result.job_rate_series("j1")[1]
        r2 = result.job_rate_series("j2")[1]
        n = len(agg)
        assert np.allclose(agg, r1[:n] + r2[:n])

    def test_invalid_duration(self, small_trace):
        world = ReplayWorld(Setup.BASELINE)
        with pytest.raises(ConfigError):
            world.run(0.0)

    def test_run_stops_all_periodic_drivers(self, small_trace):
        # Regression: run() used to stop only the control-loop ticker,
        # leaving the drain ticker and collector firing if a caller kept
        # stepping (or reused) the environment after the world finished.
        world = ReplayWorld(Setup.BASELINE, sample_period=1.0)
        world.add_job(JobSpec(job_id="j1", trace=small_trace))
        result = world.run(10.0)
        assert world._drain_ticker.stopped
        assert world.collector._ticker.stopped
        sampled = {name: len(ts) for name, ts in world.collector.series.items()}
        world.env.run(until=world.env.now + 25.0)
        # No ghost drain/collector ticks: nothing sampled after run().
        assert {name: len(ts) for name, ts in world.collector.series.items()} == sampled
        assert result.duration == 10.0


class TestRunOnce:
    def test_second_run_raises(self, small_trace):
        # Regression guard for collector double-registration: a second
        # run() would build a fresh Collector and re-add every probe, so
        # each series would accumulate two samplers' appends.
        world = ReplayWorld(Setup.BASELINE, sample_period=1.0)
        world.add_job(JobSpec(job_id="j1", trace=small_trace))
        world.run(5.0)
        with pytest.raises(ConfigError, match="only be run once"):
            world.run(5.0)

    def test_probes_registered_exactly_once(self, small_trace):
        world = ReplayWorld(Setup.BASELINE, sample_period=1.0)
        world.add_job(JobSpec(job_id="j1", trace=small_trace))
        world.run(5.0)
        # One MDS probe plus one probe per job -- no duplicates.
        assert sorted(world.collector._probes) == ["job.j1", "mds"]


class TestMdsDown:
    """A world whose MDS fails keeps running and says what it lost."""

    @staticmethod
    def run_outage(setup, trace_spans):
        from repro.telemetry import Telemetry, TelemetryConfig
        from repro.workloads.abci import generate_mdt_trace

        telemetry = Telemetry(
            TelemetryConfig(seed=0, sample_rate=0.05, trace=trace_spans)
        )
        world = ReplayWorld(
            setup,
            mds_can_fail=True,
            algorithm=StaticPartition(50e3) if setup is Setup.PADLL else None,
            telemetry=telemetry,
        )
        world.add_job(
            JobSpec(
                job_id="j1",
                trace=generate_mdt_trace(seed=0, duration=60 * 60.0),
                setup=setup,
            )
        )
        primary = world.cluster.mds_servers[0]
        # The standby takes over 30 s later; until then nothing is served.
        world.env.call_at(20.0, lambda: primary.fail(world.env.now))
        world.run(60.0)
        return world, telemetry

    @pytest.mark.parametrize("setup", [Setup.BASELINE, Setup.PADLL])
    def test_traced_world_survives_and_logs_what_was_lost(self, setup):
        # Regression: the first undeliverable request of a traced world
        # raised TypeError (the event's ``kind`` field collided with
        # ``EventLog.emit``'s own first parameter).
        world, telemetry = self.run_outage(setup, trace_spans=True)
        assert world.env.now == 60.0
        events = list(telemetry.events.of_kind("client.mds_unavailable"))
        assert events
        assert 20.0 <= events[0].time <= 21.0
        assert {event.fields["kind"] for event in events} == {
            "open", "close", "getattr", "rename"
        }
        assert all(event.fields["client"] == "client0" for event in events)
        assert sum(event.fields["count"] for event in events) == pytest.approx(
            world._client.failed_ops, rel=1e-12
        )

    @pytest.mark.parametrize("setup", [Setup.BASELINE, Setup.PADLL])
    def test_failed_ops_counter_and_events_in_every_mode(self, setup):
        # Regression: the fused sinks' MDS-down route bumped
        # ``client.failed_ops`` but exported 0 and logged nothing.
        outcomes = []
        for trace_spans in (False, True):
            world, telemetry = self.run_outage(setup, trace_spans)
            failed = world._client.failed_ops
            assert failed > 0
            counter = telemetry.registry.counter(
                "padll_client_failed_ops_total", client="client0"
            )
            assert counter.value == pytest.approx(failed, rel=1e-12)
            events = [
                (event.time, event.fields["kind"], event.fields["count"])
                for event in telemetry.events.of_kind("client.mds_unavailable")
            ]
            assert events
            outcomes.append((failed, counter.value, events))
        assert outcomes[0] == outcomes[1]
