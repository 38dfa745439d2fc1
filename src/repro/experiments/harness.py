"""Shared experiment machinery: jobs, setups, the simulated world.

A :class:`ReplayWorld` assembles one experiment run: a simulated cluster,
one replayer-driven job per :class:`JobSpec`, optionally fronted by PADLL
stages, a control plane with policies/algorithm, and a collector sampling
the series the figures are drawn from.  The paper's three setups map to
:class:`Setup` values:

* ``BASELINE``  -- the benchmark submits straight to the file system;
* ``PASSTHROUGH`` -- requests are intercepted by a stage but the
  enforcement channels are unlimited (overhead measurement);
* ``PADLL`` -- requests are intercepted and throttled per the installed
  policies / control algorithm.

Tick ordering within a simulated second is deterministic: replayers
submit, stages drain, the cluster services, the control loop runs, the
collector samples -- the order their tickers are created in.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.core.algorithms import AllocationAlgorithm
from repro.core.controller import ControlPlane, ControlPlaneConfig
from repro.core.differentiation import ClassifierRule
from repro.core.policies import PolicyRule
from repro.core.requests import (
    MDS_KIND_BY_OP,
    OperationClass,
    Request,
    batch_request,
)
from repro.core.hierarchy import HierarchicalControlPlane, LocalController
from repro.core.stage import DataPlaneStage, OrphanPolicy, StageConfig, StageIdentity
from repro.core.token_bucket import UNLIMITED
from repro.monitoring.collector import Collector, Probe
from repro.pfs.cluster import ClusterConfig, LustreCluster
from repro.pfs.costs import OP_COSTS
from repro.pfs.mds import MDSConfig
from repro.simulation.engine import Environment
from repro.simulation.ticker import Ticker
from repro.workloads.replayer import ReplayDriver, TraceReplayer
from repro.workloads.trace import OpTrace

__all__ = ["Setup", "JobSpec", "JobResult", "WorldResult", "ReplayWorld"]

#: Mount point every simulated job reads/writes under.
PFS_MOUNT = "/pfs"

#: Plain-dict cost table for the fused delivery loops (one lookup per
#: (tick, kind) instead of a MappingProxyType hit per slice).
_COSTS: Dict[str, float] = dict(OP_COSTS)


class Setup(enum.Enum):
    BASELINE = "baseline"
    PASSTHROUGH = "passthrough"
    PADLL = "padll"


@dataclass(slots=True)
class JobSpec:
    """One job: a trace replayed through an (optional) PADLL stage."""

    job_id: str
    trace: OpTrace
    setup: Setup = Setup.BASELINE
    #: Restrict replay to these operation kinds (None = all in trace).
    kinds: Optional[Tuple[str, ...]] = None
    start: float = 0.0
    #: "per-op": one channel+rule per kind; "per-class": one metadata channel.
    channel_mode: str = "per-class"
    rate_scale: float = 0.5
    acceleration: float = 60.0
    #: Number of data-plane stages (distributed job instances).
    n_stages: int = 1
    #: Initial rate of PADLL channels before the control plane's first
    #: enforcement (None = unlimited).  Set this when the substrate is
    #: saturable: a one-loop-interval dump at unlimited rate can overload
    #: a small MDS before the first feedback iteration.
    initial_rate: Optional[float] = None

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ConfigError(f"job start must be >= 0, got {self.start}")
        if self.channel_mode not in ("per-op", "per-class"):
            raise ConfigError(f"unknown channel mode {self.channel_mode!r}")
        if self.n_stages < 1:
            raise ConfigError(f"n_stages must be >= 1, got {self.n_stages}")
        if self.initial_rate is not None and self.initial_rate <= 0:
            raise ConfigError(f"initial rate must be positive, got {self.initial_rate}")


@dataclass(slots=True)
class _JobRuntime:
    spec: JobSpec
    driver: Optional[ReplayDriver] = None
    stages: List[DataPlaneStage] = field(default_factory=list)
    # Ops delivered to the FS since the last collector sample, per kind,
    # as a preallocated buffer keyed by interned kind index.  The touch
    # list preserves first-delivery order within the sample window so the
    # probe's sum runs over the same float sequence a per-window dict
    # would have produced (first-touch order differs from interning order
    # whenever a backlog carries one kind's queue across a window edge).
    window_index: Dict[str, int] = field(default_factory=dict)
    window_kinds: List[str] = field(default_factory=list)
    window_buf: List[float] = field(default_factory=list)
    window_touched: List[int] = field(default_factory=list)
    delivered_total: float = 0.0
    completed_at: Optional[float] = None
    started: bool = False

    def window_slot(self, kind: str) -> int:
        """Intern ``kind`` into the delivery window buffer."""
        index = len(self.window_buf)
        self.window_index[kind] = index
        self.window_kinds.append(kind)
        self.window_buf.append(0.0)
        return index

    def backlog(self) -> float:
        return sum(stage.backlog() for stage in self.stages)


@dataclass(frozen=True, slots=True)
class JobResult:
    """Per-job outcome of one world run."""

    job_id: str
    start: float
    completed_at: Optional[float]
    submitted_ops: float
    delivered_ops: float

    @property
    def makespan(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.start


@dataclass(frozen=True, slots=True)
class WorldResult:
    """Everything one run produced."""

    setup: Setup
    duration: float
    #: series name -> (times, values); includes "mds.<kind>" served rates,
    #: "job.<id>" per-job delivered rates, "job.<id>.backlog" gauges.
    series: Mapping[str, Tuple[np.ndarray, np.ndarray]]
    jobs: Mapping[str, JobResult]
    #: (time, job_id, rate) enforcement decisions of the control algorithm.
    enforcement_log: Sequence[Tuple[float, str, float]]

    def job_rate_series(self, job_id: str) -> Tuple[np.ndarray, np.ndarray]:
        return self.series[f"job.{job_id}"]

    def mds_rate_series(self, kind: str = "total") -> Tuple[np.ndarray, np.ndarray]:
        return self.series[f"mds.{kind}"]

    def aggregate_job_rate(self) -> np.ndarray:
        """Element-wise sum of all per-job delivered-rate series."""
        stacks = [v for k, (_, v) in self.series.items()
                  if k.startswith("job.") and k.count(".") == 1]
        if not stacks:
            return np.array([])
        n = min(len(v) for v in stacks)
        return np.sum([v[:n] for v in stacks], axis=0)


class ReplayWorld:
    """One experiment run: cluster + jobs + control plane + collector."""

    def __init__(
        self,
        setup: Setup,
        dt: float = 1.0,
        sample_period: float = 5.0,
        loop_interval: float = 1.0,
        mds_capacity: float = 10e6,
        mds_can_fail: bool = False,
        algorithm: Optional[AllocationAlgorithm] = None,
        algorithm_channel: str = "metadata",
        fabric_factory=None,
        health_aware: bool = False,
        telemetry=None,
        controller_config: Optional[ControlPlaneConfig] = None,
        hierarchical: bool = False,
        n_racks: int = 2,
        placement: str = "job",
        orphan_policy: Optional[OrphanPolicy] = None,
    ) -> None:
        if dt <= 0:
            raise ConfigError(f"dt must be positive, got {dt}")
        if sample_period <= 0:
            raise ConfigError(f"sample period must be positive, got {sample_period}")
        if n_racks < 1:
            raise ConfigError(f"n_racks must be >= 1, got {n_racks}")
        if placement not in ("job", "split"):
            raise ConfigError(
                f"placement must be 'job' or 'split', got {placement!r}"
            )
        self.setup = setup
        self.dt = float(dt)
        self.sample_period = float(sample_period)
        self.telemetry = telemetry
        # Tracing rides the legacy per-request pipeline (proven bit-identical
        # to the fused batch paths by the tier-1 suite) so spans open and
        # close where requests actually flow; metrics-only telemetry keeps
        # the fused paths.
        self._traced = telemetry is not None and telemetry.tracer is not None
        self.env = Environment(telemetry=telemetry)
        self.cluster = LustreCluster(
            ClusterConfig(
                mds=MDSConfig(capacity=mds_capacity, can_fail=mds_can_fail)
            )
        )
        self.cluster.set_clock(lambda: self.env.now)
        if telemetry is not None:
            for mds in self.cluster.mds_servers:
                mds.attach_telemetry(telemetry)
        # ``fabric_factory(env)`` lets experiments interpose a custom RPC
        # fabric (e.g. delayed enforcement for the control-lag ablation).
        fabric = fabric_factory(self.env) if fabric_factory is not None else None
        # ``controller_config`` overrides the two convenience knobs above
        # (dependability runs need the full surface: async collects,
        # retries, staleness, eviction).
        config = controller_config or ControlPlaneConfig(
            loop_interval=loop_interval, algorithm_channel=algorithm_channel
        )
        self.hierarchical = hierarchical
        self.placement = placement
        self.orphan_policy = orphan_policy
        if hierarchical:
            # Per-rack local controllers.  placement="job" pins whole jobs
            # to racks (add order, round robin) so the hierarchy is
            # enforcement-equivalent to the flat plane on a fault-free
            # fabric; placement="split" spreads each job's stages across
            # racks so the global tier merges partial per-job demands.
            self.controller = HierarchicalControlPlane(
                fabric=fabric,
                config=config,
                algorithm=algorithm,
                telemetry=telemetry,
            )
            self.racks = [LocalController(f"rack{r}") for r in range(n_racks)]
            for rack in self.racks:
                self.controller.attach_local(rack)
        else:
            self.controller = ControlPlane(
                fabric=fabric,
                config=config,
                algorithm=algorithm,
                telemetry=telemetry,
            )
            self.racks = []
        self._job_rack: Dict[str, str] = {}
        self._job_base: Dict[str, int] = {}
        if health_aware:
            # The control plane's global visibility includes PFS health:
            # during an MDS outage it pauses enforcement so backlog stays
            # at the stages (see repro.experiments.failover).
            self.controller.health_probe = (
                lambda: self.cluster.active_mds(self.env.now) is not None
            )
        self._jobs: Dict[str, _JobRuntime] = {}
        self._reservations: Dict[str, float] = {}
        self._pending_policies: List[PolicyRule] = []
        # Tick order: jobs submit (tickers created at add_job time, before
        # these), then stages drain, the cluster services, the control loop
        # runs, and the collector samples last.
        self._drain_ticker: Optional[Ticker] = None
        self.collector: Optional[Collector] = None

    # -- configuration ------------------------------------------------------------
    def set_reservation(self, job_id: str, rate: float) -> None:
        """Reservation applied when (and if) the job registers."""
        self._reservations[job_id] = rate

    def install_policy(self, rule: PolicyRule) -> None:
        self.controller.install_policy(rule)

    def add_job(self, spec: JobSpec) -> None:
        if spec.job_id in self._jobs:
            raise ConfigError(f"duplicate job id {spec.job_id!r}")
        runtime = _JobRuntime(spec=spec)
        self._jobs[spec.job_id] = runtime
        # Jobs enter the system at their start time (stage registration
        # included), exactly like a scheduler launching them.
        self.env.call_at(spec.start, lambda: self._start_job(runtime))

    def _rack_for_job(self, job_id: str) -> str:
        """Whole-job-per-rack placement, round robin in job-start order."""
        rack = self._job_rack.get(job_id)
        if rack is None:
            rack = self.racks[len(self._job_rack) % len(self.racks)].local_id
            self._job_rack[job_id] = rack
        return rack

    def _rack_for_stage(self, job_id: str, stage_index: int) -> str:
        """Rack hosting one stage of a job, per the placement policy.

        ``split`` places stage ``i`` of the ``k``-th started job on rack
        ``(k + i) % n_racks``, so multi-stage jobs span racks; with one
        stage per job this reduces exactly to the whole-job round robin.
        """
        if self.placement == "job":
            return self._rack_for_job(job_id)
        base = self._job_base.get(job_id)
        if base is None:
            base = len(self._job_base)
            self._job_base[job_id] = base
        return self.racks[(base + stage_index) % len(self.racks)].local_id

    # -- job wiring -----------------------------------------------------------------
    def _deliver(self, runtime: _JobRuntime, request: Request) -> None:
        """Sink between the job's last component and the FS client."""
        kind = request.kind_hint
        if kind is None:
            kind = MDS_KIND_BY_OP[request.op]
        count = request.count
        slot = runtime.window_index.get(kind if kind is not None else "local")
        if slot is None:
            slot = runtime.window_slot(kind if kind is not None else "local")
        accumulated = runtime.window_buf[slot]
        if accumulated == 0.0:
            runtime.window_touched.append(slot)
        runtime.window_buf[slot] = accumulated + count
        runtime.delivered_total += count
        self._client.submit_kind(request, kind)

    def _deliver_rows(
        self,
        runtime: _JobRuntime,
        slices: Sequence[Tuple[str, object, str, float]],
        interleave: int,
    ) -> None:
        """Fused BASELINE sink: one call delivers a whole replay tick.

        Performs exactly the per-slice arithmetic of ``interleave`` rounds
        of :meth:`_deliver` + ``PFSClient.submit_kind`` + ``MDS.offer`` --
        same accumulators, same float operations, same order -- but with
        routing, cost, and window-slot lookups resolved once per (tick,
        kind) instead of once per slice.
        """
        client = self._client
        now = client._clock()
        cluster = self.cluster
        hot_standby = cluster.config.mds_mode == "hot-standby"
        shared_mds = cluster.active_mds(now) if hot_standby else None
        window_index = runtime.window_index
        window_buf = runtime.window_buf
        window_touched = runtime.window_touched
        touch = window_touched.append
        # Row layout: (window slot, count, route, kind, cost, mds, mds_slot).
        # Routes: 0 = MDS queue, 1 = OSS, 2 = client-local, 3 = MDS down.
        rows = []
        for _kind, op, path, count in slices:
            if count <= 0:
                continue
            kind = MDS_KIND_BY_OP[op]
            window_key = kind if kind is not None else "local"
            slot = window_index.get(window_key)
            if slot is None:
                slot = runtime.window_slot(window_key)
            if kind is None:
                rows.append((slot, count, 2, kind, 0.0, None, None))
            elif kind == "read" or kind == "write":
                rows.append((slot, count, 1, kind, 0.0, None, None))
            else:
                mds = shared_mds if hot_standby else cluster.mds_for_path(path, now)
                if mds is None or mds.failed:
                    rows.append((slot, count, 3, kind, 0.0, None, None))
                else:
                    mds_slot = mds._window_index.get(kind)
                    if mds_slot is None:
                        mds_slot = mds._window_slot(kind)
                    rows.append((slot, count, 0, kind, _COSTS[kind], mds, mds_slot))
        delivered_total = runtime.delivered_total
        submitted_ops = client.submitted_ops
        failed_ops = client.failed_ops
        oss_offer = cluster.oss_pool.offer
        buffer_replay = cluster.buffer_for_replay
        if len(rows) == 1 and rows[0][2] == 0:
            # Single-kind MDS tick (the per-op fig4 panels): unpack the row
            # once and run the interleave adds in a tight loop.  cost*count
            # is the same product every round, so hoisting it reproduces
            # the per-round accumulation bit-for-bit.
            slot, count, _route, _kind, cost, mds, mds_slot = rows[0]
            queue_append = mds._queue.append
            queued_units = mds._queued_units
            units = cost * count
            for _ in range(interleave):
                accumulated = window_buf[slot]
                if accumulated == 0.0:
                    touch(slot)
                window_buf[slot] = accumulated + count
                delivered_total += count
                submitted_ops += count
                queue_append([mds_slot, count, cost, now])
                queued_units += units
            mds._queued_units = queued_units
            runtime.delivered_total = delivered_total
            client.submitted_ops = submitted_ops
            return
        for _ in range(interleave):
            for slot, count, route, kind, cost, mds, mds_slot in rows:
                accumulated = window_buf[slot]
                if accumulated == 0.0:
                    touch(slot)
                window_buf[slot] = accumulated + count
                delivered_total += count
                submitted_ops += count
                if route == 0:
                    # MDS queue entries are [slot, count, cost, arrived]
                    # lists (see repro.pfs.mds); appending one here is the
                    # fused equivalent of MetadataServer.offer().
                    mds._queue.append([mds_slot, count, cost, now])
                    mds._queued_units += cost * count
                elif route == 1:
                    # Replay batches carry size=0, so bytes == max(0,1)*count.
                    oss_offer(kind, count, now)
                elif route == 3:
                    failed_ops += count
                    buffer_replay(kind, count)
        runtime.delivered_total = delivered_total
        client.submitted_ops = submitted_ops
        client.failed_ops = failed_ops

    def _submit_stage_rows(
        self,
        runtime: _JobRuntime,
        stage: DataPlaneStage,
        slices: Sequence[Tuple[str, object, str, float]],
        interleave: int,
    ) -> None:
        """Fused single-stage submit: classify once per (tick, kind), then
        enqueue one shared Request record per round-robin slice.

        A channel never mutates a queued record in place (batch splits
        replace the queue head), so enqueuing the same record ``interleave``
        times is safe; per-entry backlog/stat adds keep every accumulator's
        float sequence identical to the per-slice ``stage.submit`` path.
        """
        now = self.env.now
        classify = stage.classifier.classify
        channels = stage._channels
        job_id = stage.identity.job_id
        rows = []
        for kind, op, path, count in slices:
            if count <= 0:
                continue
            request = batch_request(
                op, path, job_id, count, submitted_at=now, kind_hint=MDS_KIND_BY_OP[op]
            )
            decision = classify(request)
            if decision.enforced:
                channel = channels[decision.channel_id]
                rows.append((channel._queue.append, channel, channel.stats, request, count))
                counter = stage._m_enforced
            else:
                rows.append((None, None, None, request, count))
                counter = stage._m_passthrough
            if counter is not None:
                # What ``stage.submit`` counts per slice, once per row.
                counter.inc(count * interleave)
        # When every row is enforced and targets a distinct channel, all
        # accumulators are per-row disjoint, so running the interleave adds
        # row-by-row (stats hoisted to locals) replays the exact per-round
        # float sequences of the interleave-outer loop.
        fuse = True
        seen_channels = set()
        for enqueue, channel, _stats, _request, _count in rows:
            # Object-identity dedup within one tick: only distinctness
            # matters and the ids never reach a result.
            # padll: allow(DET004)
            if enqueue is None or id(channel) in seen_channels:
                fuse = False
                break
            seen_channels.add(id(channel))  # padll: allow(DET004)
        if fuse:
            for enqueue, channel, stats, request, count in rows:
                backlog = channel._backlog
                enqueued_ops = stats.enqueued_ops
                window_enqueued = stats.window_enqueued
                for _ in range(interleave):
                    enqueue(request)
                    backlog += count
                    enqueued_ops += count
                    window_enqueued += count
                channel._backlog = backlog
                stats.enqueued_ops = enqueued_ops
                stats.window_enqueued = window_enqueued
            return
        for _ in range(interleave):
            for enqueue, channel, stats, request, count in rows:
                if enqueue is not None:
                    enqueue(request)
                    channel._backlog += count
                    stats.enqueued_ops += count
                    stats.window_enqueued += count
                else:
                    stage._passthrough_window += count
                    stage._passthrough_total += count
                    self._deliver(runtime, request)

    def _deliver_granted(self, runtime: _JobRuntime, grants: List[Request]) -> None:
        """Fused drain-side delivery: sink a stage's granted records.

        Equivalent to calling :meth:`_deliver` per record in list order,
        with clock/routing resolved once per call.
        """
        client = self._client
        now = client._clock()
        cluster = self.cluster
        hot_standby = cluster.config.mds_mode == "hot-standby"
        shared_mds = cluster.active_mds(now) if hot_standby else None
        window_index = runtime.window_index
        window_buf = runtime.window_buf
        touch = runtime.window_touched.append
        kind_by_op = MDS_KIND_BY_OP
        costs = _COSTS
        delivered_total = runtime.delivered_total
        submitted_ops = client.submitted_ops
        failed_ops = client.failed_ops
        oss_offer = cluster.oss_pool.offer
        buffer_replay = cluster.buffer_for_replay
        # The submit path enqueues ONE shared record per (tick, kind),
        # ``interleave`` times, so grants repeat the same object in runs.
        # Routing is stable within a drain tick (``now`` is fixed,
        # active_mds is idempotent per tick, and an MDS cannot fail while
        # draining), so resolution is cached across the repeats; the adds
        # below still execute once per grant, in grant order.
        last = None
        kind = None
        count = 0.0
        slot = 0
        route = 2  # 0 = MDS, 1 = OSS, 2 = local, 3 = MDS down
        mds = None
        cost = 0.0
        mds_slot = 0
        nbytes = 0.0
        for request in grants:
            if request is not last:
                last = request
                kind = request.kind_hint
                if kind is None:
                    kind = kind_by_op[request.op]
                count = request.count
                window_key = kind if kind is not None else "local"
                slot = window_index.get(window_key)
                if slot is None:
                    slot = runtime.window_slot(window_key)
                if kind is None:
                    route = 2
                elif kind == "read" or kind == "write":
                    route = 1
                    size = request.size
                    nbytes = (size if size > 1 else 1) * count
                else:
                    mds = (
                        shared_mds
                        if hot_standby
                        else cluster.mds_for_path(request.path, now)
                    )
                    if mds is None or mds.failed:
                        route = 3
                    else:
                        route = 0
                        cost = costs[kind]
                        mds_slot = mds._window_index.get(kind)
                        if mds_slot is None:
                            mds_slot = mds._window_slot(kind)
            accumulated = window_buf[slot]
            if accumulated == 0.0:
                touch(slot)
            window_buf[slot] = accumulated + count
            delivered_total += count
            submitted_ops += count
            if route == 0:
                mds._queue.append([mds_slot, count, cost, now])
                mds._queued_units += cost * count
            elif route == 1:
                oss_offer(kind, nbytes, now)
            elif route == 3:
                failed_ops += count
                buffer_replay(kind, count)
        runtime.delivered_total = delivered_total
        client.submitted_ops = submitted_ops
        client.failed_ops = failed_ops

    def _start_job(self, runtime: _JobRuntime) -> None:
        spec = runtime.spec
        runtime.started = True
        submit = None
        batch_submit = None
        if spec.setup is Setup.BASELINE:
            submit = lambda req: self._deliver(runtime, req)  # noqa: E731
            batch_submit = lambda rows, il: self._deliver_rows(runtime, rows, il)  # noqa: E731
        else:
            unlimited = spec.setup is Setup.PASSTHROUGH
            for i in range(spec.n_stages):
                stage = DataPlaneStage(
                    StageIdentity(
                        stage_id=f"{spec.job_id}-stage{i}",
                        job_id=spec.job_id,
                        hostname=f"node-{spec.job_id}-{i}",
                    ),
                    sink=lambda req, rt=runtime: self._deliver(rt, req),
                    config=StageConfig(pfs_mounts=(PFS_MOUNT,)),
                    telemetry=self.telemetry,
                )
                self._build_channels(stage, spec, unlimited)
                if self.orphan_policy is not None:
                    stage.set_orphan_policy(self.orphan_policy)
                runtime.stages.append(stage)
                if self.hierarchical:
                    self.controller.register_stage(
                        stage,
                        self._rack_for_stage(spec.job_id, i),
                        now=self.env.now,
                    )
                else:
                    self.controller.register(stage, now=self.env.now)
            reservation = self._reservations.get(spec.job_id)
            if reservation is not None:
                self.controller.set_reservation(spec.job_id, reservation)
            if spec.n_stages == 1:
                only = runtime.stages[0]
                submit = lambda req: only.submit(req, self.env.now)  # noqa: E731
                batch_submit = (  # noqa: E731
                    lambda rows, il, st=only: self._submit_stage_rows(runtime, st, rows, il)
                )
            else:
                # Split each batch evenly over the job's stages (one
                # application instance per node submitting its share).
                def submit(req, rt=runtime):  # noqa: E731
                    share = req.count / len(rt.stages)
                    for stage in rt.stages:
                        part = batch_request(
                            req.op, req.path, req.job_id, share, size=req.size
                        )
                        stage.submit(part, self.env.now)

        if self._traced:
            # Per-request submission so every request passes the stage's
            # sampling point (the fused batch submit bypasses it).
            batch_submit = None
        kinds = spec.kinds
        replayer = TraceReplayer(
            spec.trace,
            acceleration=spec.acceleration,
            rate_scale=spec.rate_scale,
            kinds=kinds,
        )
        runtime.driver = ReplayDriver(
            self.env,
            replayer,
            submit,
            job_id=spec.job_id,
            mount=PFS_MOUNT,
            dt=self.dt,
            start=self.env.now,
            batch_submit=batch_submit,
        )
        # Preallocate the delivery-window slots for every kind this job
        # will replay (the fused sinks then never take the interning path).
        from repro.workloads.replayer import KIND_TO_OP

        for kind in replayer.kinds:
            window_key = MDS_KIND_BY_OP[KIND_TO_OP[kind]] or "local"
            if window_key not in runtime.window_index:
                runtime.window_slot(window_key)

    def _build_channels(self, stage: DataPlaneStage, spec: JobSpec, unlimited: bool) -> None:
        now = self.env.now
        initial = UNLIMITED if (unlimited or spec.initial_rate is None) else (
            spec.initial_rate / spec.n_stages
        )
        if spec.channel_mode == "per-op":
            kinds = spec.kinds or tuple(spec.trace.kinds)
            from repro.workloads.replayer import KIND_TO_OP

            for kind in kinds:
                stage.create_channel(kind, rate=initial, now=now)
                stage.add_classifier_rule(
                    ClassifierRule(
                        name=f"{kind}-rule",
                        channel_id=kind,
                        op_types=frozenset({KIND_TO_OP[kind]}),
                    )
                )
        else:
            stage.create_channel("metadata", rate=initial, now=now)
            stage.add_classifier_rule(
                ClassifierRule(
                    name="metadata-rule",
                    channel_id="metadata",
                    op_classes=frozenset(
                        {
                            OperationClass.METADATA,
                            OperationClass.DIRECTORY_MANAGEMENT,
                            OperationClass.EXTENDED_ATTRIBUTES,
                        }
                    ),
                )
            )
        # Passthrough keeps channels unlimited forever by not installing
        # policies; PADLL's rates arrive from the control plane.
        del unlimited

    # -- per-tick housekeeping ----------------------------------------------------
    def _drain_tick(self, now: float) -> None:
        if self._traced:
            # Per-grant sinking: grants flow through ``_deliver`` and the
            # PFS client so sampled trace contexts reach the MDS queue.
            for runtime in self._jobs.values():
                for stage in runtime.stages:
                    stage.drain(now)
            self.cluster.service(now, self.dt)
            self._check_completions(now)
            return
        grants: List[Request] = []
        for runtime in self._jobs.values():
            for stage in runtime.stages:
                # Collect grants, then deliver them in order: channel state
                # never depends on the sink, so the flush is equivalent to
                # per-grant sinking (and skips one call chain per grant).
                stage.drain_collect(now, grants)
                if grants:
                    self._deliver_granted(runtime, grants)
                    del grants[:]
        self.cluster.service(now, self.dt)
        self._check_completions(now)

    def _check_completions(self, now: float) -> None:
        # A job is only complete once the FS actually served its work: a
        # failed/recovering MDS, or one with a deep queue, blocks completion.
        mds = self.cluster.active_mds(now)
        fs_healthy = mds is not None and mds.queue_delay <= self.dt
        for runtime in self._jobs.values():
            if runtime.completed_at is not None or runtime.driver is None:
                continue
            if fs_healthy and runtime.driver.finished and runtime.backlog() <= 1e-6:
                runtime.completed_at = now
                # The job leaves the system: its stages deregister, and
                # algorithms redistribute its share (Fig. 5's exits).
                for stage in runtime.stages:
                    self.controller.deregister(stage.identity.stage_id)
                runtime.stages.clear()

    # -- running ----------------------------------------------------------------------
    def run(self, duration: float) -> WorldResult:
        if duration <= 0:
            raise ConfigError(f"duration must be positive, got {duration}")
        if self.collector is not None:
            # Running a world twice would register every probe a second
            # time and double-count each sampled series.
            raise ConfigError("a ReplayWorld can only be run once")
        self._client = self.cluster.new_client()
        if self.telemetry is not None:
            self._client.attach_telemetry(self.telemetry)
        # All three run deferred so that within any instant they observe
        # the replayers' submissions for that tick: jobs submit, stages
        # drain, the control loop runs, the collector samples.
        self._drain_ticker = Ticker(
            self.env, self.dt, self._drain_tick, start=0.0, name="drain", defer=1
        )
        control_ticker = Ticker(
            self.env,
            self.controller.config.loop_interval,
            self.controller.tick,
            start=0.0,
            name="control-loop",
            defer=2,
        )
        self.collector = Collector(
            self.env,
            period=self.sample_period,
            defer=3,
            registry=(
                self.telemetry.registry if self.telemetry is not None else None
            ),
        )
        mds = self.cluster.mds_servers[0]
        self.collector.add_probe(Collector.mds_probe("mds", mds))
        for job_id, runtime in self._jobs.items():
            self.collector.add_probe(self._job_probe(job_id, runtime))
        self.env.run(until=duration)
        # Stop every periodic driver, not just the control loop: a caller
        # that keeps stepping the environment (or reuses it) must not see
        # ghost drain/collector ticks from a finished world.
        control_ticker.stop()
        self._drain_ticker.stop()
        self.collector.stop()
        series = {
            name: (ts.times().copy(), ts.values().copy())
            for name, ts in self.collector.series.items()
        }
        jobs = {
            job_id: JobResult(
                job_id=job_id,
                start=runtime.spec.start,
                completed_at=runtime.completed_at,
                submitted_ops=(
                    runtime.driver.total_submitted if runtime.driver else 0.0
                ),
                delivered_ops=runtime.delivered_total,
            )
            for job_id, runtime in self._jobs.items()
        }
        return WorldResult(
            setup=self.setup,
            duration=duration,
            series=series,
            jobs=jobs,
            enforcement_log=tuple(self.controller.enforcement_log),
        )

    def _job_probe(self, job_id: str, runtime: _JobRuntime) -> Probe:
        def sample(now: float, period: float) -> Dict[str, float]:
            buf = runtime.window_buf
            kinds = runtime.window_kinds
            touched = runtime.window_touched
            # Same accumulation a dict-backed window produced: int 0 start,
            # then the per-kind totals added in first-delivery order.
            total = 0
            for slot in touched:
                total = total + buf[slot]
            out = {"": total / period}
            for slot in touched:
                out[kinds[slot]] = buf[slot] / period
                buf[slot] = 0.0
            touched.clear()
            out["backlog"] = runtime.backlog()
            return out

        return Probe(name=f"job.{job_id}", sample=sample)
