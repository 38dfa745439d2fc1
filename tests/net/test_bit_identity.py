"""The tentpole acceptance: socket and in-proc transports are bit-identical.

Two worlds run the same scripted demand (3 jobs, 60 ticks) through
identically-configured control planes.  World A's fabric decorates the
classic :class:`InProcTransport`; world B's decorates a
:class:`SocketTransport` whose stages live behind a real localhost TCP
reverse tunnel (stage endpoints bound on a dialed worker transport, the
controller calling back over the accepted connection).  The enforcement
log and every ``control.cycle`` event must match *exactly* -- floats
included -- with and without fault injection layered on top.  Anything
less means the wire codec loses information or the fault decorator
draws differently over the two substrates, either of which would make
the out-of-process deployment silently diverge from every simulated
result in the repository.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.algorithms import ProportionalSharing
from repro.core.controller import ControlPlane, ControlPlaneConfig
from repro.core.differentiation import ClassifierRule
from repro.core.fabric import FaultyFabric, LinkProfile
from repro.core.hierarchy import HierarchicalControlPlane, LocalController
from repro.core.requests import OperationClass, OperationType, Request
from repro.core.rpc import StageEndpoint
from repro.core.stage import DataPlaneStage, StageIdentity
from repro.net import RemoteEndpoint, SocketTransport
from repro.telemetry.runtime import Telemetry, TelemetryConfig

N_TICKS = 60

#: Capacity chosen so proportional shares are non-representable floats
#: (100 * 120/360 = 33.333...): the comparison exercises exact float
#: round-tripping through the wire codec, not just friendly integers.
CAPACITY = 100.0
DEMANDS = (("job0", 180.0), ("job1", 120.0), ("job2", 60.0))


def _build_stages(telemetry):
    stages = []
    for job, demand in DEMANDS:
        stage = DataPlaneStage(
            StageIdentity(f"{job}/s0", job), lambda req: None, telemetry=telemetry
        )
        stage.create_channel("metadata", rate=float("inf"))
        stage.add_classifier_rule(
            ClassifierRule(
                name="md",
                channel_id="metadata",
                op_classes=frozenset({OperationClass.METADATA}),
            )
        )
        stages.append((stage, demand))
    return stages


def _run_ticks(controller, stages):
    for i in range(N_TICKS):
        now = float(i)
        for stage, demand in stages:
            stage.submit(
                Request(OperationType.OPEN, path="/f", count=demand), now
            )
            stage.drain(now)
        controller.tick(now)


def _observable(controller, telemetry):
    """Everything the acceptance compares, as plain values."""
    return {
        "enforcement": controller.enforcement_log.to_list(),
        "cycles": [
            (event.kind, event.time, event.fields)
            for event in telemetry.events.events
            if event.kind == "control.cycle"
        ],
        "loop_iterations": controller.loop_iterations,
        "collect_failures": controller.collect_failures,
    }


def run_world(via_socket, link=None, fault_seed=3):
    """One full scripted run; returns the observable record + fabric."""
    telemetry = Telemetry(TelemetryConfig(seed=5, sample_rate=0.5, trace=True))
    stages = _build_stages(telemetry)
    cleanup = []
    if via_socket:
        controller_side = SocketTransport(deadline=30.0)
        accepted = []
        seen = threading.Event()

        def on_connect(connection):
            accepted.append(connection)
            seen.set()

        host, port = controller_side.listen("127.0.0.1", 0, on_connect=on_connect)
        worker = SocketTransport(deadline=30.0)
        for stage, _demand in stages:
            worker.bind(stage.identity.stage_id, StageEndpoint(stage).handle)
        worker.connect(host, port, name="bit-identity-worker")
        assert seen.wait(5.0), "worker never connected"
        connection = accepted[0]
        cleanup = [worker.close, controller_side.close]
        transport = controller_side
    else:
        transport = None  # FaultyFabric defaults to InProcTransport

    fabric = FaultyFabric(
        link=link, seed=fault_seed, telemetry=telemetry, transport=transport
    )
    controller = ControlPlane(
        fabric=fabric,
        config=ControlPlaneConfig(loop_interval=1.0, algorithm_channel="metadata"),
        algorithm=ProportionalSharing(capacity=CAPACITY),
        telemetry=telemetry,
    )
    try:
        for stage, _demand in stages:
            if via_socket:

                def handler(message, _c=connection, _a=stage.identity.stage_id):
                    return _c.request(_a, message)

                controller.register_endpoint(stage.identity, handler)
            else:
                controller.register(stage)
        _run_ticks(controller, stages)
        return _observable(controller, telemetry), fabric
    finally:
        for fn in cleanup:
            fn()


class TestBitIdentity:
    def test_faultless_transports_identical(self):
        inproc, _ = run_world(via_socket=False)
        socketed, _ = run_world(via_socket=True)
        assert inproc["enforcement"], "scripted run produced no enforcement"
        assert inproc["cycles"], "scripted run produced no control.cycle events"
        assert socketed == inproc

    def test_faulty_decoration_identical(self):
        """Loss draws must fall on the same messages over both substrates."""
        link = LinkProfile(loss=0.3)
        inproc, fabric_a = run_world(via_socket=False, link=link, fault_seed=11)
        socketed, fabric_b = run_world(via_socket=True, link=link, fault_seed=11)
        assert inproc["collect_failures"] > 0, "loss never fired; test is vacuous"
        assert fabric_b.lost == fabric_a.lost
        assert fabric_b.calls == fabric_a.calls
        assert socketed == inproc

    def test_socket_runs_are_self_reproducible(self):
        first, _ = run_world(via_socket=True, link=LinkProfile(loss=0.2))
        second, _ = run_world(via_socket=True, link=LinkProfile(loss=0.2))
        assert second == first


def run_hier_world(via_socket, link=None, fault_seed=3):
    """The scripted run on a hierarchical plane with every stage on one
    local: in process, or -- the stage-host shape -- a worker's
    :class:`LocalController` bound at one address and reached over a real
    localhost TCP reverse tunnel.  Either way the plane attaches one
    handler at ``host0`` and records the stages the local holds."""
    telemetry = Telemetry(TelemetryConfig(seed=5, sample_rate=0.5, trace=True))
    stages = _build_stages(telemetry)
    cleanup = []
    transport = None
    local = LocalController("host0")
    for stage, _demand in stages:
        local.register(stage)
    handle = local.handle
    if via_socket:
        transport = SocketTransport(deadline=30.0)
        accepted = []
        seen = threading.Event()

        def on_connect(connection):
            accepted.append(connection)
            seen.set()

        host, port = transport.listen("127.0.0.1", 0, on_connect=on_connect)
        worker = SocketTransport(deadline=30.0)
        worker.bind("host0", local.handle)
        worker.connect(host, port, name="host0")
        assert seen.wait(5.0), "worker never connected"
        cleanup = [worker.close, transport.close]
        handle = RemoteEndpoint(accepted[0], "host0", None)
    fabric = FaultyFabric(
        link=link, seed=fault_seed, telemetry=telemetry, transport=transport
    )
    controller = HierarchicalControlPlane(
        fabric=fabric,
        config=ControlPlaneConfig(loop_interval=1.0, algorithm_channel="metadata"),
        algorithm=ProportionalSharing(capacity=CAPACITY),
        telemetry=telemetry,
    )
    controller.attach_local("host0", handle)
    try:
        for stage, _demand in stages:
            controller.register_stage(stage.identity, "host0")
        _run_ticks(controller, stages)
        return _observable(controller, telemetry), fabric
    finally:
        for fn in cleanup:
            fn()


class TestHierarchicalBitIdentity:
    """A stage host's shape: InProc == TCP with the stages behind one local."""

    @pytest.mark.parametrize("link", [None, LinkProfile(loss=0.3)], ids=["clean", "lossy"])
    def test_one_local_over_tcp_is_the_in_process_local(self, link):
        inproc, fabric_a = run_hier_world(via_socket=False, link=link, fault_seed=11)
        socketed, fabric_b = run_hier_world(via_socket=True, link=link, fault_seed=11)
        assert inproc["enforcement"], "scripted run produced no enforcement"
        if link is not None:
            assert inproc["collect_failures"] > 0, "loss never fired; test is vacuous"
        assert (fabric_b.calls, fabric_b.lost) == (fabric_a.calls, fabric_a.lost)
        assert socketed == inproc

    def test_one_local_is_the_flat_plane_on_a_clean_fabric(self):
        flat, _ = run_world(via_socket=True)
        hier, _ = run_hier_world(via_socket=True)
        assert hier["enforcement"] == flat["enforcement"]
