"""``live_control_wire``: the live control path, over the wire.

A ``ControlPlane(ProportionalSharing(headroom=1.5))`` on a listening
``SocketTransport``; 32 ``LiveStage``s (8 jobs x 4) bound on a second
``SocketTransport`` in the same process that dials *one* connection -- the
``serve --stage-procs 1`` topology.  Every tick is 2 x 32 framed RPCs
(collect, then enforce) through ``core.wire`` and ``net``: the same
``core.controller`` and ``core.algorithms`` as ``sim_multistage_sharing``,
but here the wire costs ten times what they do.

A virtual clock advances one second per tick.  Before each tick every
stage is offered its job's demand through ``LiveStage.throttle``; demand
takes seeded steps of at most +-40 %, and with headroom 1.5 the rate
enforced a tick earlier always covers it, so no throttle ever blocks.
Closed loop: one ticking thread, the next tick starts when the last
returns.  Ticking thread and both reader threads share one CPU (the
process is pinned): a faster reader shortens the tick by more than its
own share, because the ticking thread waits on it.

Correctness: the enforcement log must be bit-identical to the same
scenario over ``InProcTransport``.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Dict, List, Sequence, Tuple

from padllbench import isolated, stats
from padllbench.calibrate import Meter
from padllbench.tracer import SpanTracer
from padllbench.workloads.base import Check, Repeat, Traced, Workload
from padllbench.workloads.simtrace import enforce_apply_ms_p50

N_JOBS = 8
STAGES_PER_JOB = 4
CHANNEL = "metadata"
#: Ticks between two calibration samples.
SEGMENT = 20
#: A throttle that blocks longer than this (wall) fails the run instead of
#: hanging it: the virtual clock never advances inside a tick.
BLOCKED_AFTER_S = 5.0


class ThrottleBlocked(RuntimeError):
    pass


class VirtualClock:
    """Seconds since start, advanced by the benchmark, never by the wall.

    A bucket that lacks tokens polls this clock while it waits, and would
    wait forever; while demand is being offered (:meth:`watch`) the clock
    raises instead once the wall says a throttle has blocked.
    """

    def __init__(self) -> None:
        self.now = 1000.0
        self._watching_since: float | None = None

    def watch(self, on: bool) -> None:
        self._watching_since = time.perf_counter() if on else None

    def __call__(self) -> float:
        since = self._watching_since
        if since is not None and time.perf_counter() - since > BLOCKED_AFTER_S:
            raise ThrottleBlocked("a throttle blocked: enforced rate below demand")
        return self.now


class Scenario:
    """Seeded demand: per-job ops per tick, stepping by at most +-40 %."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self.demand = [200.0 + 800.0 * self._rng.random() for _ in range(N_JOBS)]

    def step(self) -> List[float]:
        rng = self._rng
        self.demand = [
            min(1500.0, max(50.0, d * (1.0 + rng.uniform(-0.4, 0.4))))
            for d in self.demand
        ]
        return self.demand


class World:
    """Controller + 32 live stages, over a socket or in-process."""

    def __init__(self, seed: int, via_socket: bool) -> None:
        from repro.core.algorithms import ProportionalSharing
        from repro.core.controller import ControlPlane, ControlPlaneConfig
        from repro.core.differentiation import ClassifierRule
        from repro.core.fabric import FaultyFabric
        from repro.core.requests import OperationClass, OperationType, Request
        from repro.core.rpc import StageEndpoint
        from repro.core.stage import StageIdentity
        from repro.core.transport import InProcTransport
        from repro.interpose import LiveStage
        from repro.net import SocketTransport

        self.clock = VirtualClock()
        self.scenario = Scenario(seed)
        self.stages = []
        for j in range(N_JOBS):
            for s in range(STAGES_PER_JOB):
                stage = LiveStage(
                    StageIdentity(f"job{j}/s{s}", f"job{j}"),
                    pfs_mounts=("/pfs",),
                    clock=self.clock,
                )
                stage.create_channel(CHANNEL, rate=1e9)
                stage.add_classifier_rule(
                    ClassifierRule(
                        "md", CHANNEL, op_classes=frozenset({OperationClass.METADATA})
                    )
                )
                self.stages.append(stage)
        self._closers: List[Any] = []
        self.connection = None
        if via_socket:
            controller_side = SocketTransport(deadline=30.0)
            self._closers.append(controller_side.close)
            accepted: List[Any] = []
            connected = threading.Event()

            def on_connect(connection) -> None:
                accepted.append(connection)
                connected.set()

            host, port = controller_side.listen("127.0.0.1", 0, on_connect=on_connect)
            worker = SocketTransport(deadline=30.0)
            self._closers.insert(0, worker.close)
            for stage in self.stages:
                worker.bind(stage.identity.stage_id, StageEndpoint(stage).handle)
            worker.connect(host, port, name="bench-worker")
            if not connected.wait(10.0):
                self.close()
                raise RuntimeError("the worker transport never connected")
            self.connection = accepted[0]
            transport = controller_side
        else:
            transport = InProcTransport()
        self.controller = ControlPlane(
            fabric=FaultyFabric(transport=transport),
            config=ControlPlaneConfig(
                loop_interval=1.0, algorithm_channel=CHANNEL, history_limit=None
            ),
            algorithm=ProportionalSharing(capacity=64_000.0, headroom=1.5),
        )
        for stage in self.stages:
            if via_socket:
                self.controller.register_endpoint(
                    stage.identity, self._remote(stage.identity.stage_id)
                )
            else:
                self.controller.register_endpoint(
                    stage.identity, StageEndpoint(stage).handle
                )
        for j in range(N_JOBS):
            self.controller.set_reservation(f"job{j}", 4000.0 + 1000.0 * j)
        self._request = lambda count: Request(OperationType.OPEN, path="/pfs/f", count=count)
        self.ticks = 0

    def _remote(self, address: str):
        connection = self.connection

        def handler(message):
            return connection.request(address, message)

        return handler

    def offer(self) -> None:
        """One second of demand on every stage (never blocks; see module doc)."""
        demand = self.scenario.step()
        request = self._request
        self.clock.watch(True)
        for index, stage in enumerate(self.stages):
            stage.throttle(request(demand[index // STAGES_PER_JOB]))
        self.clock.watch(False)

    def tick(self) -> float:
        """Advance the clock, offer demand, run one control tick; returns
        the wall seconds ``ControlPlane.tick`` took."""
        self.clock.now += 1.0
        self.offer()
        start = time.perf_counter()
        self.controller.tick(self.clock.now)
        self.ticks += 1
        return time.perf_counter() - start

    def close(self) -> None:
        for closer in self._closers:
            closer()
        self._closers = []


class LiveControlWire(Workload):
    name = "live_control_wire"
    imports = (
        "repro.core.controller",
        "repro.interpose",
        "repro.net",
    )
    pin = True
    work_per_s_is = "control_ticks_per_s"
    unit_cost_us_is = "control_tick_ms_p50 x 1000"

    def __init__(self, seed: int, smoke: bool, scratch: str) -> None:
        super().__init__(seed, smoke, scratch)
        self.ticks_per_repeat = 40 if smoke else 400
        self.world: World | None = None

    def setup(self) -> None:
        self.world = World(self.seed, via_socket=True)

    def teardown(self) -> None:
        if self.world is not None:
            self.world.close()
            self.world = None

    def warmup(self, meter: Meter) -> None:
        for _ in range(SEGMENT):
            self.world.tick()

    def repeat(self, meter: Meter) -> Repeat:
        world = self.world
        calibrator = meter.calibrator
        raw = norm = 0.0
        tick_us: List[float] = []
        rates: List[float] = []
        before = calibrator.recent()
        done = 0
        while done < self.ticks_per_repeat:
            count = min(SEGMENT, self.ticks_per_repeat - done)
            start = time.perf_counter()
            ticks = [world.tick() for _ in range(count)]
            elapsed = time.perf_counter() - start
            after = calibrator.sample()
            factor = calibrator.factor(before, after)
            before = after
            raw += elapsed
            norm += elapsed * factor
            tick_us.extend(t * factor * 1e6 for t in ticks)
            rates.append(count / (elapsed * factor))
            done += count
        return Repeat(
            work=float(done),
            raw_s=raw,
            norm_s=norm,
            unit_costs_us=tick_us,
            rates=rates,
            named={
                "control_ticks_per_s": stats.median(rates),
                "control_tick_ms_p50": stats.median(tick_us) / 1e3,
            },
        )

    def checks(self, repeats: Sequence[Repeat], meter: Meter) -> List[Check]:
        world = self.world
        reference = World(self.seed, via_socket=False)
        for _ in range(world.ticks):
            reference.tick()
        return [
            check_logs(
                world.controller.enforcement_log.to_list(),
                reference.controller.enforcement_log.to_list(),
            ),
            Check(
                "no RPC failed and no throttle blocked",
                world.ticks * 2 * len(world.stages),
                world.controller.collect_failures,
            ),
        ]

    def named_units(self) -> Dict[str, str]:
        return {"control_ticks_per_s": "ticks/s", "control_tick_ms_p50": "ms"}

    # -- traced run -------------------------------------------------------------
    def instrument(self, tracer: SpanTracer) -> None:
        from repro.core import algorithms, controller, fabric, wire
        from repro.interpose import live_stage
        from repro.net import socket_transport

        tracer.wrap(controller.ControlPlane, "tick", "core.controller.tick")
        tracer.wrap(
            fabric.FaultyFabric,
            "call",
            "core.fabric.call",
            key=lambda _self, _address, message: type(message).__name__,
        )
        tracer.wrap(algorithms.ProportionalSharing, "allocate", "core.algorithms.allocate")
        tracer.wrap(
            socket_transport.WireConnection, "request", "net.socket.request", remote=True
        )
        for attr in ("encode_payload", "encode_frame"):
            tracer.wrap_function([wire, socket_transport], attr, "core.wire.encode")
        tracer.wrap_function([wire, socket_transport], "decode_payload", "core.wire.decode")
        tracer.wrap(wire.FrameDecoder, "feed", "core.wire.decode")
        tracer.wrap(live_stage.LiveStage, "collect", "interpose.live_stage.collect")
        tracer.wrap(live_stage.LiveStage, "set_channel_rate", "interpose.live_stage.set_rate")
        tracer.wrap(live_stage.LiveStage, "throttle", "interpose.live_stage.throttle")

    def layer_metrics(self, traced: Traced) -> Dict[str, float]:
        wall = traced.wall_s or 1.0
        ticks = traced.calls("core.controller.tick") or 1.0
        round_trips = traced.calls("net.socket.request")
        trips_us = [d * 1e6 for d in traced.durations_s("net.socket.request")]
        tick_ms = [d * 1e3 for d in traced.durations_s("core.controller.tick")]
        fabric_calls = traced.matching("core.fabric.call")
        return {
            "core.controller.ticks": ticks,
            "core.controller.tick_s": traced.total_s("core.controller.tick"),
            "core.controller.collect_s": traced.total_s("core.fabric.call[CollectStats]"),
            "core.controller.enforce_s": traced.total_s("core.fabric.call[EnforceRate]"),
            "core.controller.self_s": traced.self_s("core.controller.tick"),
            "core.controller.share": traced.self_s("core.controller.tick") / wall,
            "core.controller.tick_ms_p99": stats.tail(tick_ms),
            "core.controller.enforce_apply_ms_p50": enforce_apply_ms_p50(traced),
            "core.algorithms.allocate_calls": traced.calls("core.algorithms.allocate"),
            "core.algorithms.allocate_s": traced.total_s("core.algorithms.allocate"),
            "core.fabric.calls": traced.calls(*fabric_calls),
            "core.fabric.call_s": traced.total_s(*fabric_calls),
            "net.socket.round_trips": round_trips,
            "net.socket.round_trip_us_p50": stats.median(trips_us),
            "net.socket.round_trip_us_p99": stats.tail(trips_us),
            "net.socket.handoff_us": (
                traced.self_s("net.socket.request") / round_trips * 1e6 if round_trips else 0.0
            ),
        }

    def isolated(self, meter: Meter) -> Dict[str, float]:
        from repro.core import wire
        from repro.service import ServiceRuntime

        world = self.world
        rounds = 3 if self.smoke else 20
        # The messages of one tick, request and reply, as the wire saw them.
        captured: List[Tuple[Any, Any]] = []
        request = world.connection.request

        def capturing(address, message, deadline=None):
            reply = request(address, message, deadline)
            captured.append(({"to": address, "msg": message}, reply))
            return reply

        world.connection.request = capturing
        try:
            world.tick()
        finally:
            del world.connection.request
        frames = [
            wire.encode_frame(kind, corr, wire.encode_payload(value))
            for corr, (sent, reply) in enumerate(captured, start=1)
            for kind, value in ((wire.FRAME_REQUEST, sent), (wire.FRAME_REPLY, reply))
        ]

        def encode_all() -> None:
            for corr, (sent, reply) in enumerate(captured, start=1):
                wire.encode_frame(wire.FRAME_REQUEST, corr, wire.encode_payload(sent))
                wire.encode_frame(wire.FRAME_REPLY, corr, wire.encode_payload(reply))

        def decode_all() -> None:
            decoder = wire.FrameDecoder()
            for data in frames:
                for frame in decoder.feed(data):
                    wire.decode_payload(frame.payload)

        n_frames = len(frames) or 1
        runtime = ServiceRuntime(controller=world.controller)
        calls = 20 if self.smoke else 200
        stage = world.stages[0]
        return {
            "core.wire.encode_us": isolated.per_call_us(meter, encode_all, rounds) / n_frames,
            "core.wire.decode_us": isolated.per_call_us(meter, decode_all, rounds) / n_frames,
            "core.wire.bytes_per_tick": float(sum(len(f) for f in frames)),
            "core.wire.frames_per_tick": float(len(frames)),
            "service.snapshot_ms": isolated.per_call_us(meter, runtime.snapshot, calls, 3) / 1e3,
            "service.metrics_text_ms": isolated.per_call_us(
                meter, runtime.metrics_text, calls, 3
            ) / 1e3,
            "interpose.live_stage.collect_us": isolated.per_call_us(
                meter, lambda: stage.collect(world.clock.now), calls * 10
            ),
            "interpose.live_stage.set_rate_us": isolated.per_call_us(
                meter, lambda: stage.set_channel_rate(CHANNEL, 1e9), calls * 10
            ),
        }


def check_logs(over_socket: Sequence[tuple], in_process: Sequence[tuple]) -> Check:
    """Every (time, job, rate) entry equal, floats bit for bit."""
    attempted = max(len(over_socket), len(in_process), 1)
    failed = abs(len(over_socket) - len(in_process))
    detail = ""
    for index, (a, b) in enumerate(zip(over_socket, in_process)):
        same = (
            a[1] == b[1]
            and float(a[0]).hex() == float(b[0]).hex()
            and float(a[2]).hex() == float(b[2]).hex()
        )
        if not same:
            failed += 1
            detail = detail or f"entry {index}: socket {a} != in-process {b}"
    if not over_socket:
        failed, detail = 1, "the controller enforced nothing"
    return Check(
        "enforcement log over the socket bit-identical to InProcTransport",
        attempted,
        failed,
        detail,
    )


WORKLOAD = LiveControlWire
