"""What the frozen benchmark patches must stay where it patches it.

``bench/padllbench/tracer.py::SpanTracer.wrap`` replaces
``owner.__dict__[attr]``, so a method that moves to a base class still
passes every behavioural test and then kills the traced benchmark run
with ``KeyError``.  ``bench/`` is outside tier-1; this file pins, inside
tier-1, each (owner, attribute) pair the workloads patch and the
message names the layer metrics look up.
"""

from __future__ import annotations

import pytest

from repro.core import algorithms, channel, controller, differentiation, fabric, rpc, stage, wire
from repro.experiments import fig4, harness
from repro.interpose import live_bucket, live_stage
from repro.monitoring import collector
from repro.net import socket_transport
from repro.pfs import cluster, mds
from repro.simulation import engine, ticker
from repro.simulation.sharded import coordinator, pool
from repro.workloads import abci, replayer

PATCHED = [
    (stage.DataPlaneStage, "submit"),
    (stage.DataPlaneStage, "drain"),
    (stage.DataPlaneStage, "drain_collect"),
    (stage.DataPlaneStage, "collect"),
    (stage.DataPlaneStage, "set_channel_rate"),
    (live_stage.LiveStage, "throttle"),
    (live_stage.LiveStage, "collect"),
    (live_stage.LiveStage, "set_channel_rate"),
    (controller.ControlPlane, "tick"),
    (fabric.FaultyFabric, "call"),
    (differentiation.Classifier, "classify"),
    (channel.Channel, "enqueue"),
    (channel.Channel, "drain"),
    (live_bucket.LiveTokenBucket, "acquire"),
    (mds.MetadataServer, "offer"),
    (cluster.LustreCluster, "service"),
    (collector.Collector, "add_probe"),
    (ticker.Ticker, "__init__"),
    (replayer.ReplayDriver, "__init__"),
    (replayer.TraceReplayer, "__init__"),
    (replayer.TraceReplayer, "schedule"),
    (replayer.TraceReplayer, "demand"),
    (harness.ReplayWorld, "run"),
    (engine.Environment, "run"),
    (algorithms.ProportionalSharing, "allocate"),
    (algorithms.ProportionalSharing, "allocate_arrays"),
    (coordinator.ShardedSimulation, "run"),
    (pool.ShardPool, "run_epoch_arrays"),
    (socket_transport.WireConnection, "request"),
    (wire.FrameDecoder, "feed"),
    # Module-level functions, patched in every module that imported them.
    (abci, "generate_mdt_trace"),
    (fig4, "generate_mdt_trace"),
    (fig4, "run_fig4_metadata"),
    (wire, "encode_payload"),
    (wire, "encode_frame"),
    (wire, "decode_payload"),
    (socket_transport, "encode_payload"),
    (socket_transport, "encode_frame"),
    (socket_transport, "decode_payload"),
]


@pytest.mark.parametrize(
    "owner, attr", PATCHED, ids=[f"{o.__name__}.{a}" for o, a in PATCHED]
)
def test_patched_attribute_is_defined_on_its_owner(owner, attr):
    assert attr in vars(owner), (
        f"{owner.__name__}.{attr} is inherited or gone; the benchmark "
        "patches it through the owner's own __dict__"
    )
    assert callable(vars(owner)[attr])


def test_live_stage_control_calls_keep_the_benchmark_signatures():
    # live_control_wire sets rates without ``now`` and collects with and
    # without a timestamp; each collect is checked through a field the
    # control loop reads.
    live = live_stage.LiveStage(stage.StageIdentity("s0", "job0"), clock=lambda: 0.0)
    live.create_channel("metadata")
    live.set_channel_rate("metadata", 25.0)
    assert live.channel_rate("metadata") == 25.0
    assert live.collect(7.0).window == 7.0
    assert live.collect().job_id == "job0"


def test_live_stage_throttle_takes_a_request_positionally():
    # live_control_wire's demand generator and live_interpose's isolated
    # drive call ``stage.throttle(Request(...))``; the interposer's own
    # path is ``admit(op, path)``, and the two must stay one path.
    from repro.core.requests import OperationType, Request

    live = live_stage.LiveStage(stage.StageIdentity("s0", "job0"))
    live.create_channel("metadata")
    live.add_classifier_rule(
        differentiation.ClassifierRule(
            "md", "metadata", op_types=frozenset({OperationType.OPEN})
        )
    )
    decision = live.throttle(Request(OperationType.OPEN, path="/pfs/f", count=3.0))
    assert decision.channel_id == "metadata"
    assert live.admit(OperationType.OPEN, "/pfs/f") is decision
    assert live.granted_total("metadata") == 4.0
    assert "admit" in vars(live_stage.LiveStage)


def test_flat_plane_message_names():
    # The layer metrics key on message class names.  A stage registered in
    # process joins its job's own local, so its handler still sees
    # ``CollectStats`` and ``EnforceRate`` -- what live_control_wire's
    # stages answer over the socket -- while the fabric now carries the
    # local's ``CollectAggregate`` and ``EnforceJobRateBatch``.  The
    # per-layer metrics keyed on ``core.fabric.call[CollectStats]`` /
    # ``[EnforceRate]`` -- ``core.controller.collect_s``, ``enforce_s`` and
    # ``enforce_apply_ms_p50`` -- read 0 until the benchmark re-keys them
    # (ROADMAP 1(b)).
    sent, carried = [], []
    plane = controller.ControlPlane(
        algorithm=algorithms.ProportionalSharing(capacity=10.0)
    )
    data_stage = stage.DataPlaneStage(stage.StageIdentity("s0", "job0"), lambda r: None)
    data_stage.create_channel("metadata")
    endpoint = rpc.StageEndpoint(data_stage)

    def handler(message):
        sent.append(type(message).__name__)
        return endpoint.handle(message)

    call = plane.fabric.call

    def fabric_call(address, message):
        carried.append(type(message).__name__)
        return call(address, message)

    plane.fabric.call = fabric_call
    plane.register_endpoint(data_stage.identity, handler)
    plane.tick(1.0)
    assert sent == ["CollectStats", "EnforceRate"]
    assert carried == ["CollectAggregate", "EnforceJobRateBatch"]
