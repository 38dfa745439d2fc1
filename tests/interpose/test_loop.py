"""Tests for the threaded live control loop."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ConfigError
from repro.core.controller import ControlPlane, ControlPlaneConfig
from repro.core.differentiation import ClassifierRule
from repro.core.policies import ConstantRate, PolicyRule, RuleScope
from repro.core.requests import OperationClass
from repro.core.stage import StageIdentity
from repro.interpose.live_stage import LiveStage
from repro.interpose.loop import LiveControlLoop


def plane(interval):
    """A control plane whose loop period is ``interval`` seconds."""
    return ControlPlane(config=ControlPlaneConfig(loop_interval=interval))


def make_live_stage():
    stage = LiveStage(StageIdentity("ls0", "jobL"))
    stage.create_channel("metadata")
    stage.add_classifier_rule(
        ClassifierRule(
            "md", "metadata", op_classes=frozenset({OperationClass.METADATA})
        )
    )
    return stage


class TestLiveControlLoop:
    def test_policy_enforced_on_live_stage(self):
        cp = plane(0.02)
        stage = make_live_stage()
        cp.register(stage)
        cp.install_policy(
            PolicyRule(
                name="cap",
                scope=RuleScope(channel_id="metadata"),
                schedule=ConstantRate(123.0),
            )
        )
        with LiveControlLoop(cp) as loop:
            assert loop.interval == 0.02
            deadline = time.monotonic() + 2.0
            while stage.channel_rate("metadata") != 123.0:
                if time.monotonic() > deadline:
                    pytest.fail("control loop never enforced the policy")
                time.sleep(0.01)
        assert cp.loop_iterations >= 1

    def test_double_start_rejected(self):
        loop = LiveControlLoop(plane(0.05))
        loop.start()
        try:
            with pytest.raises(ConfigError):
                loop.start()
        finally:
            loop.stop()

    def test_stop_is_idempotent_when_never_started(self):
        loop = LiveControlLoop(plane(0.05))
        loop.stop()  # no-op

    def test_error_surfaces_on_stop(self):
        cp = plane(0.01)

        class Boom:
            def allocate_arrays(self, job_ids, demand, reservation):
                raise RuntimeError("algorithm exploded")

        cp.algorithm = Boom()
        stage = make_live_stage()
        cp.register(stage)
        loop = LiveControlLoop(cp)
        loop.start()
        time.sleep(0.1)
        with pytest.raises(RuntimeError, match="exploded"):
            loop.stop()

    def test_invalid_interval(self):
        # The period is the controller's: validated once, where it is set.
        with pytest.raises(ConfigError):
            plane(0.0)
        with pytest.raises(TypeError):
            LiveControlLoop(ControlPlane(), interval=0.5)

    def test_loop_survives_tick_errors(self):
        """Regression: one failing tick must not silently kill the daemon
        thread -- enforcement continues and the error stays inspectable."""
        cp = plane(0.01)
        calls = {"n": 0}

        class FlakyOnce:
            def allocate_arrays(self, job_ids, demand, reservation):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise RuntimeError("transient blip")
                return demand

        cp.algorithm = FlakyOnce()
        cp.register(make_live_stage())
        loop = LiveControlLoop(cp)
        loop.start()
        deadline = time.monotonic() + 2.0
        while calls["n"] < 5:
            if time.monotonic() > deadline:
                pytest.fail("loop stopped ticking after the failed tick")
            time.sleep(0.01)
        assert loop.running
        assert loop.tick_errors == 1
        assert isinstance(loop.last_error, RuntimeError)
        with pytest.raises(RuntimeError, match="transient blip"):
            loop.stop()

    def test_last_error_none_when_clean(self):
        loop = LiveControlLoop(plane(0.01))
        with loop:
            time.sleep(0.05)
        assert loop.last_error is None
        assert loop.tick_errors == 0

    def test_a_stop_that_outlives_its_timeout_keeps_one_writer(self):
        """A tick longer than ``stop(timeout)`` leaves the thread alive: the
        loop still reads as running, a start refuses instead of adding a
        second writer, and the stuck tick is the error stop reports."""
        cp = plane(0.01)
        entered, release = threading.Event(), threading.Event()

        class Stuck:
            def allocate_arrays(self, job_ids, demand, reservation):
                entered.set()
                release.wait(5.0)
                return demand

        cp.algorithm = Stuck()
        cp.register(make_live_stage())
        loop = LiveControlLoop(cp)
        loop.start()
        try:
            assert entered.wait(2.0)
            error = loop.drain(timeout=0.05)
            assert isinstance(error, ConfigError) and "still running" in str(error)
            assert loop.running
            with pytest.raises(ConfigError, match="already running"):
                loop.start()
            names = [t.name for t in threading.enumerate()]
            assert names.count("padll-control-loop") == 1
        finally:
            release.set()
        loop.drain(timeout=2.0)
        assert not loop.running

