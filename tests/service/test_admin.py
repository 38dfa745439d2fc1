"""Tests for the runtime's admin plane: verbs, queueing, audit trail."""

from __future__ import annotations

import threading

import pytest

from repro.core.algorithms import MIN_RATE
from repro.core.controller import ControlPlane, ControlPlaneConfig
from repro.core.stage import StageIdentity
from repro.interpose.live_stage import LiveStage
from repro.interpose.loop import LiveControlLoop
from repro.errors import ConfigError, PolicyError
from repro.service import ServiceConfig, ServiceRuntime, WorkloadSpec


def make_runtime(**kwargs) -> ServiceRuntime:
    defaults = dict(
        port=0,
        interval=0.05,
        seed=3,
        sample_rate=0.5,
        workload=WorkloadSpec(jobs=2, stages_per_job=1, rate=0.0),
        capacity=100.0,
    )
    defaults.update(kwargs)
    return ServiceRuntime(ServiceConfig(**defaults))


class TestSynchronousApply:
    """Without a running loop there is no writer to race: verbs apply inline."""

    def test_policy_set_and_remove(self):
        runtime = make_runtime()
        result = runtime.admin(
            "policy.set", {"name": "cap", "rate": 42.0, "channel": "metadata"}
        )
        assert result["applied"] is True
        assert runtime.controller.policies["cap"].rate_at(0.0) == 42.0
        runtime.admin("policy.remove", {"name": "cap"})
        assert "cap" not in runtime.controller.policies

    def test_policy_enable_disable(self):
        runtime = make_runtime()
        runtime.admin("policy.set", {"name": "cap", "rate": 10.0})
        runtime.admin("policy.enable", {"name": "cap", "enabled": False})
        assert runtime.controller.policies["cap"].enabled is False

    def test_job_rate_installs_scoped_policy(self):
        runtime = make_runtime()
        runtime.admin("job.rate", {"job": "job0", "rate": 17.0})
        rule = runtime.controller.policies["admin:job:job0"]
        assert rule.scope.job_id == "job0"
        assert rule.priority == 100

    def test_job_reservation(self):
        runtime = make_runtime()
        runtime.admin("job.reservation", {"job": "job0", "rate": 25.0})
        assert runtime.controller.jobs["job0"].reservation == 25.0

    def test_job_drain_clamps_to_floor(self):
        runtime = make_runtime()
        runtime.admin("job.drain", {"job": "job1"})
        rule = runtime.controller.policies["admin:drain:job1"]
        assert rule.priority == 1000
        assert rule.rate_at(0.0) == MIN_RATE

    def test_job_evict(self):
        runtime = make_runtime()
        runtime.admin("job.evict", {"job": "job1"})
        assert "job1" not in runtime.controller.jobs

    def test_stage_evict(self):
        runtime = make_runtime()
        stage_id = runtime.stages[0].identity.stage_id
        runtime.admin("stage.evict", {"stage": stage_id})
        assert stage_id not in runtime.controller.stages

    def test_sampling_updates_tracer(self):
        runtime = make_runtime()
        runtime.admin("telemetry.sampling", {"rate": 0.9})
        assert runtime.telemetry.tracer.sample_rate == 0.9

    def test_sampling_without_tracer_rejected(self):
        runtime = make_runtime(trace=False)
        with pytest.raises(ConfigError, match="tracing is disabled"):
            runtime.admin("telemetry.sampling", {"rate": 0.5})

    def test_shutdown_sets_flag(self):
        runtime = make_runtime()
        assert not runtime.shutdown_requested
        runtime.admin("service.shutdown", {"reason": "test"})
        assert runtime.shutdown_requested
        assert runtime.shutdown_reason == "test"


class TestValidation:
    def test_unknown_action(self):
        runtime = make_runtime()
        with pytest.raises(ConfigError, match="unknown admin action"):
            runtime.admin("frobnicate", {})

    def test_missing_parameter(self):
        runtime = make_runtime()
        with pytest.raises(ConfigError, match="missing parameter"):
            runtime.admin("policy.set", {"rate": 5.0})

    def test_bad_rate(self):
        runtime = make_runtime()
        with pytest.raises(ConfigError, match="rate must be positive"):
            runtime.admin("policy.set", {"name": "x", "rate": -2})
        with pytest.raises(ConfigError, match="rate must be a number"):
            runtime.admin("policy.set", {"name": "x", "rate": "fast"})

    def test_unknown_job_rejected_eagerly(self):
        runtime = make_runtime()
        with pytest.raises(PolicyError, match="no job"):
            runtime.admin("job.evict", {"job": "nope"})
        with pytest.raises(PolicyError, match="no job"):
            runtime.admin("job.drain", {"job": "nope"})
        with pytest.raises(PolicyError, match="no job"):
            runtime.admin("job.reservation", {"job": "nope", "rate": 5.0})

    def test_rejected_actions_are_audited(self):
        runtime = make_runtime()
        with pytest.raises(ConfigError):
            runtime.admin("policy.set", {"rate": 5.0})
        records = runtime.audit.snapshot()
        assert records[-1]["ok"] is False
        assert records[-1]["action"] == "policy.set"
        assert "missing parameter" in records[-1]["error"]


class TestAuditTrail:
    def test_audit_record_and_event(self):
        runtime = make_runtime()
        result = runtime.admin("policy.set", {"name": "cap", "rate": 9.0})
        records = runtime.audit.snapshot()
        assert records[-1]["seq"] == result["seq"]
        assert records[-1]["ok"] is True
        admin_events = list(runtime.telemetry.events.of_kind("control.admin"))
        assert len(admin_events) == 1
        assert admin_events[0].fields["action"] == "policy.set"
        assert admin_events[0].fields["params"]["name"] == "cap"

    def test_audit_visible_through_events_endpoint_filter(self):
        runtime = make_runtime()
        runtime.admin("policy.set", {"name": "cap", "rate": 9.0})
        rows = runtime.events(kind="control.admin")
        assert len(rows) == 1
        assert rows[0]["fields"]["action"] == "policy.set"


class TestQueuedApply:
    """With the loop running, controller mutations wait for the loop thread."""

    def test_verb_applies_on_next_tick(self):
        import time

        runtime = make_runtime()
        runtime.start()
        try:
            result = runtime.admin("policy.set", {"name": "cap", "rate": 30.0})
            assert result["applied"] is False and result["queued"] is True
            for _ in range(200):
                if "cap" in runtime.controller.policies:
                    break
                time.sleep(0.02)
            assert runtime.controller.policies["cap"].rate_at(0.0) == 30.0
            records = runtime.audit.snapshot()
            assert records[-1]["seq"] == result["seq"]
            assert records[-1]["ok"] is True
        finally:
            runtime.stop()

    def test_pending_queue_flushes_on_stop(self):
        runtime = make_runtime()
        runtime.start()
        runtime.admin("policy.set", {"name": "late", "rate": 5.0})
        runtime.stop()
        assert "late" in runtime.controller.policies

    def test_queued_failure_audited_not_raised(self):
        import time

        runtime = make_runtime()
        runtime.start()
        try:
            # Passes submit-time validation (name exists is checked only
            # at apply time for removes) and fails on the loop thread.
            result = runtime.admin("policy.remove", {"name": "ghost"})
            assert result["queued"] is True
            records = []
            for _ in range(200):
                records = runtime.audit.snapshot()
                if records and records[-1]["seq"] == result["seq"]:
                    break
                time.sleep(0.02)
            assert records[-1]["ok"] is False
            assert "no policy" in records[-1]["error"]
        finally:
            runtime.stop()


class TestServiceStopWithAStuckTick:
    def test_stop_leaves_the_queue_to_the_loop_thread(self):
        """While the loop thread lives, ``stop`` must not run queued work
        inline: the stuck thread drains it when its tick returns."""
        cp = ControlPlane(config=ControlPlaneConfig(loop_interval=0.01))
        entered, release = threading.Event(), threading.Event()
        ran = []

        class Stuck:
            def allocate_arrays(self, job_ids, demand, reservation):
                entered.set()
                release.wait(5.0)
                return demand

        cp.algorithm = Stuck()
        stage = LiveStage(StageIdentity("ls0", "jobL"))
        stage.create_channel("metadata")
        cp.register(stage)
        loop = LiveControlLoop(cp)
        runtime = ServiceRuntime(controller=cp, loop=loop)
        loop.on_tick = lambda now: runtime._drain()
        loop.start()
        try:
            assert entered.wait(2.0)
            runtime._submit(lambda: ran.append(threading.current_thread().name))
            runtime.stop(timeout=0.05)
            assert ran == []
        finally:
            release.set()
        loop.drain(timeout=2.0)
        assert ran == ["padll-control-loop"]
