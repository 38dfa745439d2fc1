"""Cross-module integration tests.

These exercise whole slices of the system together: an application
issuing one metadata call at a time through a throttled PADLL stage, the
control plane steering multiple stages against a saturable MDS, and the live
interposition layer driven by the same control plane as simulated stages.
"""

from __future__ import annotations

import pytest

from repro.core.algorithms import ProportionalSharing
from repro.core.controller import ControlPlane, ControlPlaneConfig
from repro.core.differentiation import ClassifierRule
from repro.core.policies import ConstantRate, PolicyRule, RuleScope
from repro.core.requests import OperationClass, OperationType, Request
from repro.core.stage import DataPlaneStage, StageIdentity
from repro.pfs.mds import MDSConfig, MetadataServer
from repro.simulation.engine import Environment
from repro.simulation.ticker import Ticker


def md_rule():
    return ClassifierRule(
        name="md",
        channel_id="metadata",
        op_classes=frozenset(
            {OperationClass.METADATA, OperationClass.DIRECTORY_MANAGEMENT}
        ),
    )


class TestThrottledNamespaceMutation:
    """One-op requests released by a stage whose rate is a whole number
    per tick arrive at the sink whole, once each, at the channel's rate --
    what an application mutating a file system one call at a time needs
    from throttling."""

    def _build(self, rate):
        env = Environment()
        released = []

        def apply(request: Request) -> None:
            # Whole tokens per tick: no record is split.
            assert request.count == 1.0
            released.append(request)

        stage = DataPlaneStage(StageIdentity("s0", "app"), sink=apply)
        stage.create_channel("metadata", rate=rate)
        stage.add_classifier_rule(md_rule())
        Ticker(env, 1.0, lambda now: stage.drain(now), defer=1)
        return env, released, stage

    def test_files_appear_at_the_throttled_rate(self):
        env, released, stage = self._build(rate=5.0)
        for i in range(20):
            stage.submit(Request(OperationType.MKNOD, path=f"/f{i}"), 0.0)
        env.run(until=1.5)
        # Initial burst (5) + one tick (5).
        assert len(released) == 10
        env.run(until=3.5)
        assert [r.path for r in released] == [f"/f{i}" for i in range(20)]

    def test_rename_storm_preserves_tree(self):
        env, released, stage = self._build(rate=50.0)
        tree = {f"/g{i}" for i in range(10)}
        for path in sorted(tree):
            stage.submit(Request(OperationType.RENAME, path=path), 0.0)
        env.run(until=2.0)
        for request in released:
            tree.remove(request.path)  # KeyError if a rename came twice
            tree.add(request.path + ".r")
        assert tree == {f"/g{i}.r" for i in range(10)}


class TestControlledSaturableMDS:
    """Two competing jobs against an MDS near capacity: the control plane's
    proportional sharing keeps the server healthy and both jobs served."""

    def test_cap_prevents_queue_growth(self):
        env = Environment()
        mds = MetadataServer(
            config=MDSConfig(capacity=1000.0, degrade_after=2.0, can_fail=False)
        )
        stages = []
        controller = ControlPlane(
            algorithm=ProportionalSharing(900.0),
            config=ControlPlaneConfig(loop_interval=1.0),
        )
        for i in range(2):
            stage = DataPlaneStage(
                StageIdentity(f"s{i}", f"job{i}"),
                sink=lambda req: mds.offer("getattr", req.count, env.now),
            )
            stage.create_channel("metadata", rate=450.0)
            stage.add_classifier_rule(md_rule())
            controller.register(stage)
            controller.set_reservation(f"job{i}", 450.0)
            stages.append(stage)

        def tick(now: float) -> None:
            # Each job offers 800 getattr/s: 1600 total vs capacity 1000.
            for stage in stages:
                stage.submit(
                    Request(OperationType.STAT, path="/f", count=800.0), now
                )
            for stage in stages:
                stage.drain(now)
            mds.service(now, 1.0)
            controller.tick(now)

        Ticker(env, 1.0, tick)
        env.run(until=60.0)
        assert not mds.degraded
        assert mds.queue_delay < 1.0
        served_rate = mds.served["getattr"] / 60.0
        assert served_rate == pytest.approx(900.0, rel=0.1)

    def test_without_control_the_same_load_degrades(self):
        env = Environment()
        mds = MetadataServer(
            config=MDSConfig(capacity=1000.0, degrade_after=2.0, can_fail=False)
        )

        def tick(now: float) -> None:
            mds.offer("getattr", 1600.0, now)
            mds.service(now, 1.0)

        Ticker(env, 1.0, tick)
        env.run(until=60.0)
        assert mds.degraded
        assert mds.queue_delay > 10.0


class TestMixedLiveAndSimulatedStages:
    """One control plane drives a simulated stage and a live stage at once
    (same policy, same RPC surface)."""

    def test_policy_lands_on_both(self):
        from repro.interpose.live_stage import LiveStage

        controller = ControlPlane()
        sim_stage = DataPlaneStage(StageIdentity("sim0", "jobS"), lambda r: None)
        sim_stage.create_channel("metadata")
        sim_stage.add_classifier_rule(md_rule())
        live_stage = LiveStage(StageIdentity("live0", "jobL"))
        live_stage.create_channel("metadata")
        controller.register(sim_stage)
        controller.register(live_stage)
        controller.install_policy(
            PolicyRule(
                name="both",
                scope=RuleScope(channel_id="metadata"),
                schedule=ConstantRate(42.0),
            )
        )
        controller.tick(1.0)
        assert sim_stage.channel_rate("metadata") == 42.0
        assert live_stage.channel_rate("metadata") == 42.0
        assert set(controller.jobs) == {"jobS", "jobL"}
