"""Tests for the wall-clock LiveStage."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.core.differentiation import ClassifierRule
from repro.core.requests import OperationClass, OperationType, Request
from repro.core.rpc import CollectStats, EnforceRate, StageEndpoint
from repro.core.stage import StageIdentity
from repro.interpose.live_stage import LiveStage


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def make_stage(rate=100.0, mounts=None):
    clock = FakeClock()
    stage = LiveStage(StageIdentity("ls0", "jobL"), pfs_mounts=mounts, clock=clock)
    stage.create_channel("metadata", rate=rate)
    stage.add_classifier_rule(
        ClassifierRule(
            "md",
            "metadata",
            op_classes=frozenset({OperationClass.METADATA}),
        )
    )
    return stage, clock


class TestLiveStage:
    def test_throttle_enforced_request(self):
        stage, _ = make_stage()
        decision = stage.throttle(Request(OperationType.OPEN, path="/f"))
        assert decision.enforced
        assert stage.granted_total("metadata") == 1.0

    def test_passthrough_request(self):
        stage, _ = make_stage()
        decision = stage.throttle(Request(OperationType.READ, path="/f"))
        assert not decision.enforced
        assert stage.passthrough_total == 1.0

    def test_mount_filtering(self):
        stage, _ = make_stage(mounts=("/pfs",))
        assert not stage.throttle(Request(OperationType.OPEN, path="/tmp/f")).enforced
        assert stage.throttle(Request(OperationType.OPEN, path="/pfs/f")).enforced

    def test_job_id_stamped(self):
        stage, _ = make_stage()
        req = Request(OperationType.OPEN, path="/f")
        stage.throttle(req)
        assert req.job_id == "jobL"

    def test_duplicate_channel_rejected(self):
        stage, _ = make_stage()
        with pytest.raises(ConfigError):
            stage.create_channel("metadata")

    def test_rule_requires_channel(self):
        stage, _ = make_stage()
        with pytest.raises(ConfigError):
            stage.add_classifier_rule(
                ClassifierRule(
                    "bad", "ghost", op_types=frozenset({OperationType.OPEN})
                )
            )

    def test_set_rate(self):
        stage, _ = make_stage(rate=5.0)
        stage.set_channel_rate("metadata", 50.0)
        assert stage.channel_rate("metadata") == 50.0

    def test_collect_shape_compatible(self):
        stage, clock = make_stage()
        for _ in range(4):
            stage.throttle(Request(OperationType.OPEN, path="/f"))
        stage.throttle(Request(OperationType.READ, path="/f"))
        clock.t = 2.0
        stats = stage.collect()
        assert stats.stage_id == "ls0"
        assert stats.window == pytest.approx(2.0)
        snap = stats.channels[0]
        assert snap.granted_ops == 4.0
        assert snap.enqueued_ops == 4.0  # live stage has no queue
        assert snap.backlog == 0.0
        assert stats.passthrough_ops == 1.0
        # Window resets.
        clock.t = 3.0
        assert stage.collect().channels[0].granted_ops == 0.0

    def test_drivable_by_stage_endpoint(self):
        """The same RPC endpoint drives simulated and live stages."""
        stage, clock = make_stage()
        endpoint = StageEndpoint(stage)
        endpoint.handle(EnforceRate(channel_id="metadata", rate=7.0, now=0.0))
        assert stage.channel_rate("metadata") == 7.0
        clock.t = 1.0
        stats = endpoint.handle(CollectStats(now=1.0))
        assert stats.job_id == "jobL"


class TestControlAgainstDataPath:
    def test_control_verbs_race_throttling_threads(self):
        """Stage lock -> bucket lock, never the reverse: a control thread
        enforcing, collecting and re-creating channels while application
        threads throttle (and drive orphan decay) must neither deadlock
        nor lose a grant from the collect windows."""
        import sys
        import threading
        import time

        from repro.core.stage import OrphanPolicy

        stage = LiveStage(
            StageIdentity("ls0", "jobL"),
            orphan_policy=OrphanPolicy(
                orphan_after=1, interval=0.001, mode="decay",
                floor=1e8, half_life=0.001,
            ),
        )
        stage.create_channel("metadata", rate=1e9)
        stage.add_classifier_rule(
            ClassifierRule(
                "md", "metadata", op_classes=frozenset({OperationClass.METADATA})
            )
        )
        n_threads, per_thread = 8, 2000
        collected = []
        done = threading.Event()

        def application():
            for _ in range(per_thread):
                stage.throttle(Request(OperationType.OPEN, path="/f"))

        def controller():
            while not done.is_set():
                stage.set_channel_rate("metadata", 1e9)
                collected.append(stage.collect().channels[0].granted_ops)
                stage.create_channel("scratch")
                stage.remove_channel("scratch")
                time.sleep(0.0005)  # long enough for the stage to orphan

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            control = threading.Thread(target=controller)
            apps = [threading.Thread(target=application) for _ in range(n_threads)]
            control.start()
            for thread in apps:
                thread.start()
            for thread in apps:
                thread.join(timeout=30.0)
            done.set()
            control.join(timeout=30.0)
        finally:
            sys.setswitchinterval(old_interval)
        assert not control.is_alive() and not any(t.is_alive() for t in apps)
        collected.append(stage.collect().channels[0].granted_ops)
        assert sum(collected) == n_threads * per_thread
        assert stage.granted_total("metadata") == n_threads * per_thread
        assert stage.orphan_transitions >= 1
