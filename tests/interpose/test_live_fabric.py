"""Live fault injection: LiveControlLoop + LiveStage over FaultyFabric.

The simulated dependability studies script losses and partitions on the
engine's clock; these tests run the same fabric against *wall-clock*
live stages under a real threaded control loop -- the full section-VI
story: a lossy/partitioned control plane makes a live stage an orphan,
the orphan decays its rates toward the safe floor, and the first
enforcement after healing re-adopts it.  Every transition is observable
through telemetry events (``rpc.drop``, ``stage.orphaned``,
``stage.adopted``).
"""

from __future__ import annotations

import time

import pytest

from repro.core.algorithms import ProportionalSharing
from repro.core.controller import ControlPlane, ControlPlaneConfig
from repro.core.differentiation import ClassifierRule
from repro.core.fabric import FaultyFabric, LinkProfile
from repro.core.requests import OperationClass, OperationType, Request
from repro.core.stage import OrphanPolicy, StageIdentity
from repro.interpose.live_stage import LiveStage
from repro.interpose.loop import LiveControlLoop
from repro.telemetry.runtime import Telemetry, TelemetryConfig

INTERVAL = 0.05


def make_world(loss: float = 0.0, orphan: OrphanPolicy = None):
    telemetry = Telemetry(TelemetryConfig(seed=2, sample_rate=0.0, trace=False))
    fabric = FaultyFabric(
        link=LinkProfile(loss=loss),
        seed=2,
        telemetry=telemetry,
        clock=time.monotonic,
    )
    controller = ControlPlane(
        fabric=fabric,
        config=ControlPlaneConfig(loop_interval=INTERVAL, algorithm_channel="metadata"),
        algorithm=ProportionalSharing(capacity=100.0),
        telemetry=telemetry,
    )
    stage = LiveStage(
        StageIdentity("jobF/s0", "jobF"),
        clock=time.monotonic,
        telemetry=telemetry,
    )
    if orphan is not None:
        stage.set_orphan_policy(orphan, controller.config.loop_interval)
    stage.create_channel("metadata", rate=float("inf"))
    stage.add_classifier_rule(
        ClassifierRule(
            name="md",
            channel_id="metadata",
            op_classes=frozenset({OperationClass.METADATA}),
        )
    )
    controller.register(stage)
    return telemetry, fabric, controller, stage


def pump(stage, n: int = 5) -> None:
    for _ in range(n):
        stage.throttle(Request(op=OperationType.OPEN, path="/f"))


def wait_until(predicate, timeout: float = 8.0, poll=None) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if poll is not None:
            poll()
        if predicate():
            return True
        time.sleep(0.02)
    return False


class TestLiveLoss:
    def test_total_loss_counts_failures_and_emits_drops(self):
        telemetry, fabric, controller, stage = make_world(loss=1.0)
        with LiveControlLoop(controller, on_tick=None) as loop:
            assert wait_until(lambda: controller.collect_failures >= 3)
        assert fabric.lost >= 3
        drops = list(telemetry.events.of_kind("rpc.drop"))
        assert drops and all(e.fields["reason"] == "loss" for e in drops)
        # Nothing ever got through: the stage was never enforced.
        assert stage.channel_rate("metadata") == float("inf")

    def test_healthy_loop_enforces_live_stage(self):
        telemetry, fabric, controller, stage = make_world()
        with LiveControlLoop(controller):
            assert wait_until(
                lambda: stage.channel_rate("metadata") != float("inf"),
                poll=lambda: pump(stage, 2),
            )
        assert controller.loop_iterations >= 1
        assert controller.collect_failures == 0


class TestOrphanDecayAndReadoption:
    def test_loss_orphans_decays_then_heals(self):
        orphan = OrphanPolicy(orphan_after=2, mode="decay", floor=2.0, half_life=0.05)
        telemetry, fabric, controller, stage = make_world(orphan=orphan)
        loop = LiveControlLoop(controller)
        loop.start()
        try:
            # Phase 1: healthy -- enforcement lands, stage is adopted.
            assert wait_until(
                lambda: stage.channel_rate("metadata") != float("inf"),
                poll=lambda: pump(stage, 2),
            )
            assert not stage.orphaned

            # Phase 2: sever the link -- the stage orphans and decays to
            # the floor (the throttle path drives the decay arithmetic).
            fabric.set_link("jobF/s0", LinkProfile(loss=1.0))
            assert wait_until(
                lambda: stage.orphaned and stage.channel_rate("metadata") == 2.0,
                poll=lambda: pump(stage, 2),
            )
            orphan_events = list(telemetry.events.of_kind("stage.orphaned"))
            assert orphan_events
            assert orphan_events[0].fields == {
                "stage": "jobF/s0",
                "job": "jobF",
                "mode": "decay",
                "floor": 2.0,
            }

            # Phase 3: heal -- the next enforcement re-adopts the stage.
            fabric.set_link("jobF/s0", LinkProfile())
            assert wait_until(
                lambda: not stage.orphaned,
                poll=lambda: pump(stage, 2),
            )
            adopted = list(telemetry.events.of_kind("stage.adopted"))
            assert adopted and adopted[0].fields["stage"] == "jobF/s0"
            assert stage.channel_rate("metadata") > 2.0
            assert stage.orphan_transitions >= 1
        finally:
            loop.stop()


class TestLivePartition:
    def test_wall_clock_partition_window(self):
        telemetry, fabric, controller, stage = make_world()
        loop = LiveControlLoop(controller)
        loop.start()
        try:
            assert wait_until(
                lambda: stage.channel_rate("metadata") != float("inf"),
                poll=lambda: pump(stage, 2),
            )
            failures_before = controller.collect_failures
            now = time.monotonic()
            fabric.partition(now, now + 0.5, ["jobF/s0"])
            assert wait_until(
                lambda: controller.collect_failures > failures_before
            )
            drops = list(telemetry.events.of_kind("rpc.drop"))
            assert any(e.fields["reason"] == "partition" for e in drops)
            # The window heals on its own: collects succeed again.
            iterations = controller.loop_iterations
            assert wait_until(
                lambda: fabric.partitioned > 0
                and controller.loop_iterations > iterations + 12
            )
            assert not fabric._partitioned_now("jobF/s0")
        finally:
            loop.stop()

    def test_partition_requires_timeline(self):
        from repro.errors import ConfigError

        fabric = FaultyFabric()  # no engine, no clock
        with pytest.raises(ConfigError, match="engine- or clock-attached"):
            fabric.partition(0.0, 1.0)

    def test_partition_with_clock_only(self):
        fabric = FaultyFabric(clock=time.monotonic)
        now = time.monotonic()
        fabric.partition(now, now + 30.0, ["a"])
        assert fabric._partitioned_now("a")
        assert not fabric._partitioned_now("b")
