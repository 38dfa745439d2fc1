"""Stage autonomy under controller silence: the orphan policy."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.core.differentiation import ClassifierRule
from repro.core.requests import OperationClass, OperationType, Request
from repro.core.stage import DataPlaneStage, OrphanPolicy, StageIdentity
from repro.interpose.live_stage import LiveStage
from repro.telemetry import Telemetry

#: The enforcing plane's loop period every stage here is handed.
INTERVAL = 1.0
POLICY_HOLD = OrphanPolicy(orphan_after=2, mode="hold")
POLICY_DECAY = OrphanPolicy(orphan_after=2, mode="decay", floor=2.0, half_life=5.0)


class TestOrphanPolicyValidation:
    def test_defaults(self):
        policy = OrphanPolicy()
        assert policy.mode == "hold"
        assert policy.silence_threshold(1.0) == 3.0

    def test_silence_threshold_scales_with_interval(self):
        # orphan_after counts loop intervals of the enforcing plane.
        assert OrphanPolicy(orphan_after=4).silence_threshold(0.5) == 2.0
        assert OrphanPolicy(orphan_after=3).silence_threshold(4.0) == 12.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            OrphanPolicy(orphan_after=0)
        with pytest.raises(TypeError):
            OrphanPolicy(interval=1.0)  # the period is the plane's, not the policy's
        with pytest.raises(ConfigError):
            OrphanPolicy(mode="panic")
        with pytest.raises(ConfigError):
            OrphanPolicy(floor=0.0)
        with pytest.raises(ConfigError):
            OrphanPolicy(half_life=-1.0)


class StageOrphanContract:
    """The silence state machine lives in ``StageCore``; every stage built
    on it must behave the same.  A subclass supplies the stage and the
    two ways time reaches it:

    * ``stage_at(telemetry)`` -- a fresh stage with a ``metadata``
      channel and a rule routing metadata operations to it;
    * ``touch(stage, t)`` -- advance the stage's clock to ``t`` and
      exercise the data path (where silence is noticed);
    * ``enforce(stage, rate, t)`` -- an enforcement message at ``t``.
    """

    def adopted(self, policy, rate=64.0):
        self.telemetry = Telemetry()
        stage = self.stage_at(self.telemetry)
        stage.set_orphan_policy(policy, INTERVAL)
        self.enforce(stage, rate, 0.0)  # adoption
        return stage

    def events(self, kind):
        return [(e.time, e.fields) for e in self.telemetry.events.of_kind(kind)]

    def test_never_enforced_stage_never_orphans(self):
        self.telemetry = Telemetry()
        stage = self.stage_at(self.telemetry)
        stage.set_orphan_policy(POLICY_HOLD, INTERVAL)
        self.touch(stage, 100.0)
        assert not stage.orphaned
        assert stage.orphan_transitions == 0
        assert self.events("stage.orphaned") == []

    def test_hold_keeps_last_rate(self):
        stage = self.adopted(POLICY_HOLD)
        self.touch(stage, 1.0)
        assert not stage.orphaned
        self.touch(stage, 2.0)  # silence >= 2 cycles
        assert stage.orphaned
        assert stage.orphan_transitions == 1
        self.touch(stage, 50.0)
        assert stage.channel_rate("metadata") == 64.0  # held
        assert self.events("stage.orphaned") == [
            (2.0, {"stage": "s0", "job": "jobA", "mode": "hold", "floor": 1.0})
        ]

    def test_decay_halves_toward_floor(self):
        stage = self.adopted(POLICY_DECAY)
        self.touch(stage, 2.0)  # orphaned at t=2
        assert stage.orphaned
        self.touch(stage, 7.0)  # one half-life of orphanhood
        assert stage.channel_rate("metadata") == pytest.approx(32.0)
        self.touch(stage, 12.0)  # two half-lives
        assert stage.channel_rate("metadata") == pytest.approx(16.0)
        self.touch(stage, 500.0)
        assert stage.channel_rate("metadata") == 2.0  # clamped at the floor
        assert self.events("stage.orphaned") == [
            (2.0, {"stage": "s0", "job": "jobA", "mode": "decay", "floor": 2.0})
        ]

    def test_enforcement_readopts(self):
        stage = self.adopted(POLICY_DECAY)
        self.touch(stage, 2.0)
        assert stage.orphaned
        assert self.events("stage.adopted") == []
        self.enforce(stage, 50.0, 3.0)  # controller is back
        assert not stage.orphaned
        assert stage.channel_rate("metadata") == 50.0
        assert self.events("stage.adopted") == [
            (3.0, {"stage": "s0", "job": "jobA"})
        ]
        # A fresh silence window orphans it again (new transition).
        self.touch(stage, 5.0)
        assert stage.orphaned
        assert stage.orphan_transitions == 2
        assert [t for t, _ in self.events("stage.orphaned")] == [2.0, 5.0]

    def test_threshold_follows_the_loop_interval(self):
        self.telemetry = Telemetry()
        stage = self.stage_at(self.telemetry)
        stage.set_orphan_policy(POLICY_HOLD, 4.0)  # 2 intervals = 8 s
        self.enforce(stage, 64.0, 0.0)
        self.touch(stage, 7.5)
        assert not stage.orphaned
        self.touch(stage, 8.0)
        assert stage.orphaned

    def test_policy_needs_the_loop_interval(self):
        stage = self.stage_at(Telemetry())
        for interval in (None, 0.0):
            with pytest.raises(ConfigError, match="loop interval"):
                stage.set_orphan_policy(POLICY_HOLD, interval)
        stage.set_orphan_policy(None)  # clearing needs none

    def test_set_policy_none_disables(self):
        stage = self.adopted(POLICY_HOLD)
        stage.set_orphan_policy(None)
        self.touch(stage, 10.0)
        assert not stage.orphaned
        assert self.events("stage.orphaned") == []


def _route_metadata(stage):
    stage.create_channel("metadata", rate=1e9)
    stage.add_classifier_rule(
        ClassifierRule(
            name="md",
            channel_id="metadata",
            op_classes=frozenset({OperationClass.METADATA}),
        )
    )
    return stage


class TestSimStageOrphan(StageOrphanContract):
    """Caller-supplied time; silence is noticed on the drain path."""

    def stage_at(self, telemetry):
        return _route_metadata(
            DataPlaneStage(
                StageIdentity("s0", "jobA"), lambda req: None, telemetry=telemetry
            )
        )

    def touch(self, stage, t):
        stage.drain(t)

    def enforce(self, stage, rate, t):
        stage.set_channel_rate("metadata", rate, now=t)

    def test_drain_collect_also_checks(self):
        stage = self.adopted(POLICY_HOLD)
        grants = []
        stage.drain_collect(10.0, grants)
        assert stage.orphaned


class TestLiveStageOrphan(StageOrphanContract):
    """The stage's own clock; silence is noticed on the throttle path."""

    def stage_at(self, telemetry):
        self.now = 0.0
        return _route_metadata(
            LiveStage(
                StageIdentity("s0", "jobA"),
                clock=lambda: self.now,
                telemetry=telemetry,
            )
        )

    def touch(self, stage, t):
        self.now = t
        stage.throttle(Request(OperationType.OPEN, path="/f", count=0.001))

    def enforce(self, stage, rate, t):
        self.now = t
        stage.set_channel_rate("metadata", rate)
