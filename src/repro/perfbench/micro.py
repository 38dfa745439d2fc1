"""Microbenchmarks for the engine and data-plane hot paths.

Each benchmark performs a *fixed amount of logical work* (ticks, yields,
submissions, classifications) and reports logical operations per wall
second, so results stay comparable across code changes that alter how many
internal events the same work allocates.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.core.algorithms import ProportionalSharing
from repro.core.controller import ControlPlane
from repro.core.differentiation import Classifier, ClassifierRule
from repro.core.requests import OperationClass, OperationType, Request
from repro.core.stage import DataPlaneStage, StageConfig, StageIdentity
from repro.simulation.engine import Environment
from repro.simulation.ticker import Ticker

__all__ = [
    "bench_engine",
    "bench_stage",
    "bench_classifier",
    "bench_control",
    "bench_service_snapshot",
    "bench_sharded_control",
    "bench_socket_rpc",
    "bench_telemetry",
]


def _engine_scenario(duration: float) -> int:
    """Run the representative engine workload; return logical events done.

    The mix mirrors what the experiments stress.  The fluid experiments
    (fig4/fig5, harm, ablations) are driven almost entirely by periodic
    tickers -- replayers, stage drains, the control loop, the collector --
    so tickers dominate; processes sleeping on timeouts and processes
    waiting on already-fired events (the resume-immediately path) cover
    the discrete experiments' yield patterns.
    """
    env = Environment()
    counters = {"ticks": 0, "yields": 0}

    def count_tick(_now: float) -> None:
        counters["ticks"] += 1

    for i in range(32):
        Ticker(env, 1.0, count_tick, name=f"plain{i}")
    for i in range(32):
        Ticker(env, 1.0, count_tick, name=f"deferred{i}", defer=1 + (i % 3))

    def sleeper():
        while True:
            yield env.timeout(1.0)
            counters["yields"] += 1

    def hopper():
        # Waits on events that have already been processed: exercises the
        # resume-immediately path (one extra engine hop per iteration).
        while True:
            evt = env.event()
            evt.succeed()
            yield env.timeout(1.0)
            yield evt
            counters["yields"] += 2

    for _ in range(4):
        env.process(sleeper())
    for _ in range(2):
        env.process(hopper())

    env.run(until=duration)
    return counters["ticks"] + counters["yields"]


def bench_engine(duration: float = 2000.0) -> Dict[str, float]:
    """Engine events/sec over the mixed ticker/timeout/hop scenario."""
    start = time.perf_counter()
    work = _engine_scenario(duration)
    elapsed = time.perf_counter() - start
    return {
        "value": work / elapsed,
        "work": float(work),
        "elapsed_s": elapsed,
    }


_STAGE_OPS = (
    (OperationType.OPEN, "/pfs/scratch/job/a/file-1"),
    (OperationType.STAT, "/pfs/scratch/job/a/file-2"),
    (OperationType.CLOSE, "/pfs/scratch/job/a/file-1"),
    (OperationType.MKDIR, "/pfs/scratch/job/b"),
    (OperationType.GETXATTR, "/pfs/scratch/job/b/file-3"),
    (OperationType.READ, "/pfs/data/job/blob-1"),
    (OperationType.WRITE, "/pfs/data/job/blob-2"),
    (OperationType.STAT, "/nfs/home/user/notes.txt"),
)


def _build_stage(telemetry=None) -> DataPlaneStage:
    stage = DataPlaneStage(
        StageIdentity("bench-stage", "bench-job"),
        sink=lambda request: None,
        config=StageConfig(pfs_mounts=("/pfs",)),
        telemetry=telemetry,
    )
    stage.create_channel("meta", rate=1e9)
    stage.create_channel("data", rate=1e9)
    stage.add_classifier_rule(
        ClassifierRule(
            name="open-calls",
            channel_id="meta",
            op_types=frozenset({OperationType.OPEN, OperationType.CREAT}),
            priority=10,
        )
    )
    stage.add_classifier_rule(
        ClassifierRule(
            name="scratch-meta",
            channel_id="meta",
            op_classes=frozenset(
                {
                    OperationClass.METADATA,
                    OperationClass.DIRECTORY_MANAGEMENT,
                    OperationClass.EXTENDED_ATTRIBUTES,
                }
            ),
            path_prefixes=("/pfs/scratch",),
            priority=5,
        )
    )
    stage.add_classifier_rule(
        ClassifierRule(
            name="all-data",
            channel_id="data",
            op_classes=frozenset({OperationClass.DATA}),
        )
    )
    return stage


def bench_stage(n_ops: int = 200_000, drain_every: int = 64) -> Dict[str, float]:
    """Stage submit+drain ops/sec over a mixed op/path workload."""
    stage = _build_stage()
    ops = _STAGE_OPS
    n_kinds = len(ops)
    start = time.perf_counter()
    now = 0.0
    for i in range(n_ops):
        op, path = ops[i % n_kinds]
        stage.submit(Request(op=op, path=path, job_id="bench-job"), now)
        if i % drain_every == drain_every - 1:
            now += 1e-3
            stage.drain(now)
    stage.drain(now + 1.0)
    elapsed = time.perf_counter() - start
    return {
        "value": n_ops / elapsed,
        "work": float(n_ops),
        "elapsed_s": elapsed,
        "residual_backlog": stage.backlog(),
    }


def bench_telemetry(n_ops: int = 200_000, drain_every: int = 64) -> Dict[str, float]:
    """Telemetry off-path cost: stage ops/sec with the spine detached.

    ``value`` is the disabled (telemetry=None) throughput -- the number the
    <2% off-path overhead budget is judged against, by comparing it to the
    plain ``stage_ops_per_sec`` benchmark of the same report.  The detail
    also records the *enabled* cost (metrics + tracing at a 1% sample
    rate) so the trajectory shows what turning telemetry on buys.
    """
    from repro.telemetry import Telemetry, TelemetryConfig

    def run(telemetry) -> float:
        stage = _build_stage(telemetry)
        ops = _STAGE_OPS
        n_kinds = len(ops)
        start = time.perf_counter()
        now = 0.0
        for i in range(n_ops):
            op, path = ops[i % n_kinds]
            stage.submit(Request(op=op, path=path, job_id="bench-job"), now)
            if i % drain_every == drain_every - 1:
                now += 1e-3
                stage.drain(now)
        stage.drain(now + 1.0)
        return n_ops / (time.perf_counter() - start)

    off = run(None)
    enabled = run(Telemetry(TelemetryConfig(seed=0, sample_rate=0.01, trace=True)))
    return {
        "value": off,
        "work": float(n_ops),
        "enabled_ops_per_sec": enabled,
        "enabled_overhead_fraction": (off - enabled) / off if off > 0 else 0.0,
    }


def _control_stage(stage_id: str, job_id: str) -> DataPlaneStage:
    stage = DataPlaneStage(StageIdentity(stage_id, job_id), sink=lambda request: None)
    stage.create_channel("metadata", rate=1e6)
    stage.add_classifier_rule(
        ClassifierRule(
            name="md",
            channel_id="metadata",
            op_classes=frozenset({OperationClass.METADATA}),
        )
    )
    return stage


def _control_scenario(n_stages: int, n_cycles: int) -> float:
    """Run ``n_cycles`` full collect+enforce loops; return cycles/sec.

    One cycle is what the controller does once per ``loop_interval`` in
    every experiment: walk all registered stages for windowed stats,
    aggregate per-job demand, run the sharing algorithm, and push one
    EnforceRate per stage.  Between cycles each stage receives a small
    metadata burst so the demand signal (and therefore the allocator's
    work) is non-trivial and shifting.
    """
    cp = ControlPlane(algorithm=ProportionalSharing(capacity=100e3))
    n_jobs = max(1, n_stages // 4)
    stages = [
        _control_stage(f"s{i}", f"job{i % n_jobs}") for i in range(n_stages)
    ]
    for stage in stages:
        cp.register(stage)
    start = time.perf_counter()
    for cycle in range(n_cycles):
        now = float(cycle)
        for i, stage in enumerate(stages):
            stage.submit(
                Request(
                    op=OperationType.OPEN,
                    path="/pfs/scratch/bench",
                    count=10.0 * (1 + (i + cycle) % 3),
                    job_id=stage.identity.job_id,
                ),
                now,
            )
        cp.tick(now + 0.5)
    return n_cycles / (time.perf_counter() - start)


def bench_control(n_cycles: int = 500) -> Dict[str, float]:
    """Control-plane cycles/sec at several cluster sizes.

    ``value`` is the 64-stage figure (the paper-scale experiments run a
    few dozen stages); the 8- and 256-stage points in the detail show how
    the loop scales with fan-out.
    """
    small = _control_scenario(8, n_cycles)
    medium = _control_scenario(64, n_cycles)
    large = _control_scenario(256, max(1, n_cycles // 4))
    return {
        "value": medium,
        "work": float(n_cycles),
        "cycles_per_sec_8_stages": small,
        "cycles_per_sec_256_stages": large,
    }


def bench_socket_rpc(n_calls: int = 5_000) -> Dict[str, float]:
    """Framed RPC round trips/sec over a localhost socket transport.

    One unit of work is what the controller pays per stage per cycle in
    the out-of-process deployment: one ``CollectStats`` verb encoded
    into a frame, sent over loopback TCP, dispatched through the remote
    registry into a real :class:`DataPlaneStage` endpoint, and its
    ``StageStats`` reply decoded back -- correlation bookkeeping,
    canonical-JSON codec, and reader-thread wakeups all on the measured
    path.  Compare against ``control_cycles_per_sec`` (whose in-proc
    fabric makes the same call as a dict lookup) to see the wire tax
    the socket fabric adds.
    """
    import threading

    from repro.core.rpc import CollectStats, StageEndpoint
    from repro.net import SocketTransport

    controller_side = SocketTransport(deadline=30.0)
    accepted: list = []
    ready = threading.Event()

    def on_connect(connection) -> None:
        accepted.append(connection)
        ready.set()

    host, port = controller_side.listen("127.0.0.1", 0, on_connect=on_connect)
    host_side = SocketTransport(deadline=30.0)
    stage = _control_stage("bench-job/s0", "bench-job")
    host_side.bind("bench-job/s0", StageEndpoint(stage).handle)
    host_side.connect(host, port, name="bench-host")
    if not ready.wait(10.0):
        raise RuntimeError("socket rpc bench: peer never connected")
    # The stage host's reverse tunnel: requests travel back over the
    # connection the worker dialed.
    controller_side.attach("bench-job/s0", accepted[0])
    try:
        controller_side.call("bench-job/s0", CollectStats(now=0.0))  # warm
        start = time.perf_counter()
        for i in range(n_calls):
            controller_side.call("bench-job/s0", CollectStats(now=float(i)))
        elapsed = time.perf_counter() - start
    finally:
        host_side.close()
        controller_side.close()
    return {
        "value": n_calls / elapsed,
        "work": float(n_calls),
        "elapsed_s": elapsed,
    }


def bench_sharded_control(
    n_stages: int = 10_000, n_cycles: int = 50
) -> Dict[str, float]:
    """Full control cycles/sec at 10^4 stages on the sharded fluid engine.

    Each cycle is one epoch of the sharded coordinator: every stage's
    fluid tick (vectorised token buckets + rack MDS), per-rack demand
    partials, the hierarchical plane's split-job demand merge, the
    sharing algorithm, and the per-rack enforcement fan-out.  This is
    the scale the flat ``control_cycles_per_sec`` benchmark cannot
    reach (it walks stages one RPC at a time); the in-process single
    shard keeps the measurement free of wire overhead, so the figure
    isolates the compute cost of one global-tier cycle.
    """
    from repro.simulation.sharded import (
        FluidConfig,
        ShardedConfig,
        ShardedSimulation,
    )

    stages_per_job = 4
    n_jobs = max(1, n_stages // stages_per_job)
    n_racks = min(32, n_jobs)
    fluid = FluidConfig(seed=0, clients_per_stage=100)
    config = ShardedConfig(
        n_racks=n_racks,
        n_shards=1,
        n_jobs=n_jobs,
        stages_per_job=stages_per_job,
        placement="split",
        loop_interval=1.0,
        fluid=fluid,
    )
    # Capacity at ~60% of aggregate mean offered load, so the allocator
    # genuinely throttles and enforcement pushes reach every rack.
    capacity = 0.6 * fluid.clients_per_stage * fluid.ops_per_client * config.n_stages
    sim = ShardedSimulation(config, algorithm=ProportionalSharing(capacity=capacity))
    start = time.perf_counter()
    sim.run(float(n_cycles))
    elapsed = time.perf_counter() - start
    sim.close()
    return {
        "value": n_cycles / elapsed,
        "work": float(n_cycles),
        "elapsed_s": elapsed,
        "n_stages": float(config.n_stages),
        "n_jobs": float(n_jobs),
        "n_racks": float(n_racks),
        "n_clients": float(config.n_clients),
    }


def bench_service_snapshot(n_snapshots: int = 2_000) -> Dict[str, float]:
    """Operator read-path snapshots/sec over a populated control plane.

    One unit of work is what a scraper costs the service: build the full
    versioned ``/api/v1/snapshot`` document *and* render the ``/metrics``
    Prometheus exposition.  The world underneath is a busy one -- a
    controller with registered stages, a full enforcement ring, spans and
    events in the telemetry spine -- so the figure reflects the copy/
    format cost an operator pays per scrape, not an empty-registry
    best case.
    """
    from repro.service import ServiceRuntime
    from repro.telemetry import Telemetry, TelemetryConfig

    telemetry = Telemetry(TelemetryConfig(seed=0, sample_rate=1.0, trace=True))
    cp = ControlPlane(
        algorithm=ProportionalSharing(capacity=100e3), telemetry=telemetry
    )
    n_jobs = 8
    stages = []
    for i in range(32):
        stage = DataPlaneStage(
            StageIdentity(f"s{i}", f"job{i % n_jobs}"),
            sink=lambda request: None,
            telemetry=telemetry,
        )
        stage.create_channel("metadata", rate=1e6)
        stage.add_classifier_rule(
            ClassifierRule(
                name="md",
                channel_id="metadata",
                op_classes=frozenset({OperationClass.METADATA}),
            )
        )
        cp.register(stage)
        stages.append(stage)
    for cycle in range(64):
        now = float(cycle)
        for i, stage in enumerate(stages):
            stage.submit(
                Request(
                    op=OperationType.OPEN,
                    path="/pfs/scratch/bench",
                    count=10.0 * (1 + (i + cycle) % 3),
                    job_id=stage.identity.job_id,
                ),
                now,
            )
            stage.drain(now)
        cp.tick(now + 0.5)
    runtime = ServiceRuntime(controller=cp, telemetry=telemetry)
    start = time.perf_counter()
    for _ in range(n_snapshots):
        runtime.snapshot()
        runtime.metrics_text()
    elapsed = time.perf_counter() - start
    return {
        "value": n_snapshots / elapsed,
        "work": float(n_snapshots),
        "elapsed_s": elapsed,
        "n_stages": float(len(stages)),
        "enforcement_entries": float(len(cp.enforcement_log.to_list())),
    }


def bench_classifier(n_ops: int = 500_000) -> Dict[str, float]:
    """Classifier decisions/sec over a mixed matched/passthrough workload."""
    classifier = Classifier(
        rules=[
            ClassifierRule(
                name="open-calls",
                channel_id="meta",
                op_types=frozenset({OperationType.OPEN, OperationType.CREAT}),
                priority=10,
            ),
            ClassifierRule(
                name="scratch-meta",
                channel_id="meta",
                op_classes=frozenset(
                    {
                        OperationClass.METADATA,
                        OperationClass.DIRECTORY_MANAGEMENT,
                        OperationClass.EXTENDED_ATTRIBUTES,
                    }
                ),
                path_prefixes=("/pfs/scratch",),
                priority=5,
            ),
            ClassifierRule(
                name="job-data",
                channel_id="data",
                op_classes=frozenset({OperationClass.DATA}),
                job_ids=frozenset({"job1", "job2"}),
            ),
        ],
        pfs_mounts=("/pfs",),
    )
    requests = [
        Request(op=op, path=path, job_id=job)
        for op, path in _STAGE_OPS
        for job in ("job1", "job2", "job3")
    ]
    n_kinds = len(requests)
    start = time.perf_counter()
    for i in range(n_ops):
        classifier.classify(requests[i % n_kinds])
    elapsed = time.perf_counter() - start
    return {
        "value": n_ops / elapsed,
        "work": float(n_ops),
        "elapsed_s": elapsed,
    }
