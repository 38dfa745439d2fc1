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

Requests move one way, whatever the setup, the number of stages per job
or the telemetry mode.  A replay tick hands the job's rows -- one per
kind, with the slice count of one round-robin round -- to
:meth:`ReplayWorld._submit_stage_rows` (:meth:`ReplayWorld._deliver_rows`
for BASELINE): one shared :class:`Request` record per (tick, kind) is
queued once per slice in each stage's channel.  The drain tick's
:meth:`ReplayWorld._drain_stages` drains each stage through
:meth:`DataPlaneStage.drain_collect` -- ``Channel.drain`` is the one
grant loop -- and takes the granted records to the MDS queue in order.
:meth:`ReplayWorld._route` is the one place that decides where a kind's
ops go (job window slot; MDS, client-local -- data ops included -- or no
MDS up).  Every float accumulator sees one add per slice, in submission
order, so results do not depend on how records are shared.
"""

from __future__ import annotations

import enum
from functools import partial
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.core.algorithms import AllocationAlgorithm
from repro.core.controller import ControlPlane, ControlPlaneConfig
from repro.core.channel import Channel
from repro.core.differentiation import ClassifierRule
from repro.core.policies import PolicyRule
from repro.core.requests import MDS_CLASSES, MDS_KIND_BY_OP, Request, batch_request
from repro.core.hierarchy import LocalController, check_placement, rack_index
from repro.core.stage import DataPlaneStage, OrphanPolicy, StageIdentity
from repro.core.token_bucket import UNLIMITED
from repro.monitoring.collector import Collector, Probe
from repro.pfs.client import PFS_MOUNT
from repro.pfs.cluster import ClusterConfig, LustreCluster
from repro.pfs.costs import OP_COSTS
from repro.pfs.mds import MDSConfig
from repro.simulation.engine import Environment
from repro.simulation.ticker import DT, Ticker
from repro.workloads.replayer import ReplayDriver, TraceReplayer
from repro.workloads.trace import OpTrace

__all__ = ["Setup", "JobSpec", "JobResult", "WorldResult", "ReplayWorld"]

#: Local controllers of a world with rack placement.
N_RACKS = 2

#: Plain-dict cost table for the delivery loops (one lookup per
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
    replayer: TraceReplayer
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
        sample_period: float = 5.0,
        loop_interval: float = 1.0,
        mds_capacity: float = 10e6,
        mds_can_fail: bool = False,
        algorithm: Optional[AllocationAlgorithm] = None,
        algorithm_channel: str = "metadata",
        fabric_factory=None,
        health_aware: bool = False,
        telemetry=None,
        placement: Optional[str] = None,
        orphan_policy: Optional[OrphanPolicy] = None,
    ) -> None:
        if sample_period <= 0:
            raise ConfigError(f"sample period must be positive, got {sample_period}")
        self.placement = None if placement is None else check_placement(placement)
        self.setup = setup
        self.sample_period = float(sample_period)
        self.telemetry = telemetry
        self._tracer = telemetry.tracer if telemetry is not None else None
        #: kind -> ops no MDS could take since the last drain tick.
        self._undelivered: Dict[str, float] = {}
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
        # The fabric picks the collect loop: sessions (deadlines, retries,
        # staleness, all in loop intervals) when it defers collects.
        config = ControlPlaneConfig(
            loop_interval=loop_interval, algorithm_channel=algorithm_channel
        )
        self.orphan_policy = orphan_policy
        self.controller = ControlPlane(
            fabric=fabric,
            config=config,
            algorithm=algorithm,
            telemetry=telemetry,
        )
        #: The world's racks: none with ``placement=None``, where each
        #: job's stages join the local the plane keeps for that job.  With
        #: ``"job"`` whole jobs are round-robined over ``N_RACKS`` racks;
        #: ``"split"`` spreads each job's stages across them, so the plane
        #: merges partial per-job demands.
        self.racks: List[LocalController] = []
        if placement is not None:
            self.racks = [LocalController(f"rack{r}") for r in range(N_RACKS)]
            for rack in self.racks:
                self.controller.attach_local(rack.local_id, rack.handle)
        #: job id -> its position in job-start order (rack placement).
        self._job_index: Dict[str, int] = {}
        if health_aware:
            # The control plane's global visibility includes PFS health:
            # during an MDS outage it pauses enforcement so backlog stays
            # at the stages (see repro.experiments.failover).
            self.controller.health_probe = (
                lambda: self.cluster.active_mds(self.env.now) is not None
            )
        self._jobs: Dict[str, _JobRuntime] = {}
        # Tick order: jobs submit (tickers created at add_job time, before
        # these), then stages drain, the cluster services, the control loop
        # runs, and the collector samples last.
        self._drain_ticker: Optional[Ticker] = None
        self.collector: Optional[Collector] = None

    # -- configuration ------------------------------------------------------------
    def set_reservation(self, job_id: str, rate: float) -> None:
        self.controller.set_reservation(job_id, rate)

    def install_policy(self, rule: PolicyRule) -> None:
        self.controller.install_policy(rule)

    def add_job(self, spec: JobSpec) -> None:
        if spec.job_id in self._jobs:
            raise ConfigError(f"duplicate job id {spec.job_id!r}")
        # The replayer checks the kinds and the rate scale: a bad job is
        # refused here, not at its start time with its stages registered.
        replayer = TraceReplayer(spec.trace, rate_scale=spec.rate_scale, kinds=spec.kinds)
        runtime = _JobRuntime(spec=spec, replayer=replayer)
        self._jobs[spec.job_id] = runtime
        # Jobs enter the system at their start time (stage registration
        # included), exactly like a scheduler launching them.
        self.env.call_at(spec.start, lambda: self._start_job(runtime))

    def _rack_for_stage(self, job_id: str, stage_index: int) -> LocalController:
        """Rack hosting one stage of a job; jobs count in start order."""
        job = self._job_index.setdefault(job_id, len(self._job_index))
        rack = rack_index(self.placement, job, stage_index, len(self.racks))
        return self.racks[rack]

    # -- job wiring -----------------------------------------------------------------
    def _route(
        self, runtime: _JobRuntime, kind: Optional[str], path: str, now: float
    ) -> tuple:
        """Where ops of ``kind`` on ``path`` go, resolved once per (tick, kind).

        Returns ``(window slot, cost, mds, mds slot, aside)``.  Ops bound
        for a live MDS carry its queue coordinates (``mds`` is not None);
        undeliverable ops carry ``aside``, which sinks one slice given its
        count; client-local and data ops carry neither: they are counted
        in the window and by the client, and go no further.
        """
        window_key = kind if kind is not None else "local"
        slot = runtime.window_index.get(window_key)
        if slot is None:
            slot = runtime.window_slot(window_key)
        if kind is None or kind == "read" or kind == "write":
            return slot, 0.0, None, 0, None
        mds = self.cluster.mds_for_path(path, now)
        if mds is None:
            return slot, 0.0, None, 0, partial(self._mds_down, kind)
        mds_slot = mds._window_index.get(kind)
        if mds_slot is None:
            mds_slot = mds._window_slot(kind)
        return slot, _COSTS[kind], mds, mds_slot, None

    def _mds_down(self, kind: str, count: float) -> None:
        """Sink one slice no MDS can take: lost, or held for replay."""
        self._client.failed_ops += count
        self.cluster.buffer_for_replay(kind, count)
        undelivered = self._undelivered
        undelivered[kind] = undelivered.get(kind, 0.0) + count

    def _deliver_rows(
        self,
        runtime: _JobRuntime,
        slices: Sequence[Tuple[str, object, str, float]],
        interleave: int,
    ) -> None:
        """Deliver one replay tick of ops that no channel holds back.

        BASELINE jobs submit here; so do the rows of a staged job that
        match no classifier rule.  Each of the ``interleave`` round-robin
        rounds adds every row's slice to the job's window, the client and
        the target's queue -- an MDS batch per slice, as
        ``MetadataServer.offer`` would append it -- with the routing
        resolved once per row.  A row's kind is its op's MDS kind (None
        for a client-local op): a replayer kind names the MDS kind of its
        op (``KIND_TO_OP``), so a replay row carries it already.
        """
        client = self._client
        now = self.env._now
        window_buf = runtime.window_buf
        touch = runtime.window_touched.append
        rows = []
        for kind, _op, path, count in slices:
            if count > 0:
                rows.append((count, *self._route(runtime, kind, path, now)))
        delivered_total = runtime.delivered_total
        submitted_ops = client.submitted_ops
        if len(rows) == 1 and rows[0][3] is not None:
            # Single-kind MDS tick (the per-op fig4 panels): unpack the row
            # once and run the interleave adds in a tight loop.  cost*count
            # is the same product every round, so hoisting it reproduces
            # the per-round accumulation bit-for-bit.
            count, slot, cost, mds, mds_slot, _aside = rows[0]
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
            for count, slot, cost, mds, mds_slot, aside in rows:
                accumulated = window_buf[slot]
                if accumulated == 0.0:
                    touch(slot)
                window_buf[slot] = accumulated + count
                delivered_total += count
                submitted_ops += count
                if mds is not None:
                    # MDS queue entries are [slot, count, cost, arrived]
                    # lists (see repro.pfs.mds).
                    mds._queue.append([mds_slot, count, cost, now])
                    mds._queued_units += cost * count
                elif aside is not None:
                    aside(count)
        runtime.delivered_total = delivered_total
        client.submitted_ops = submitted_ops

    def _submit_stage_rows(
        self,
        runtime: _JobRuntime,
        stages: Sequence[DataPlaneStage],
        slices: Sequence[Tuple[str, object, str, float]],
        interleave: int,
    ) -> None:
        """Submit one replay tick to a job's stages.

        Each stage is one application instance submitting an equal share:
        per (tick, kind) the share is computed and classified once per
        stage, and one shared Request record is queued for every
        round-robin slice.  A channel never mutates a queued record in
        place (batch splits replace the queue head), so sharing is safe.
        A channel's accumulators see its rows' slices in submission order
        (round-robin round, then kind); channels are disjoint, so they are
        filled one after another.  The queue and its counters are written
        here in bulk, not through ``Channel.enqueue``: that would cost one
        Python frame per slice, ``interleave`` times per row and stage.
        Rows no rule matches go to :meth:`_deliver_rows` in that same
        order, stages innermost.
        """
        now = self.env._now
        tracer = self._tracer
        n_stages = len(stages)
        job_id = runtime.spec.job_id
        # channel -> (its records, their counts) this tick.  Keyed by the
        # channel itself (its id is only unique within a stage); the dict
        # is read in insertion order, so nothing depends on the hash.
        groups: Dict[Channel, tuple] = {}
        enforced = []  # (channel, records, position, record), submission order
        passed = []  # (stage, slice) of unenforced rows, submission order
        for kind, op, path, count in slices:
            if count <= 0:
                continue
            share = count / n_stages
            request = batch_request(
                op, path, job_id, share, submitted_at=now, kind_hint=kind
            )
            for stage in stages:
                channel_id = stage.classifier.classify(request).channel_id
                if channel_id is not None:
                    channel = stage._channels[channel_id]
                    group = groups.get(channel)
                    if group is None:
                        groups[channel] = group = ([request], [share])
                    else:
                        group[0].append(request)
                        group[1].append(share)
                    if tracer is not None:
                        requests = group[0]
                        enforced.append((channel, requests, len(requests) - 1, request))
                    counter = stage._m_enforced
                else:
                    passed.append((stage, (kind, op, path, share)))
                    counter = stage._m_passthrough
                if counter is not None:
                    # What ``stage.submit`` counts per slice, once per row.
                    counter.inc(share * interleave)
        for channel, (requests, counts) in groups.items():
            channel._queue.extend(requests * interleave)
            backlog = channel._backlog
            window_enqueued = channel.window_enqueued
            if len(counts) == 1:
                # One kind on this channel (the per-op fig4 panels).
                count = counts[0]
                for _ in range(interleave):
                    backlog += count
                    window_enqueued += count
            else:
                for _ in range(interleave):
                    for count in counts:
                        backlog += count
                        window_enqueued += count
            channel._backlog = backlog
            channel.window_enqueued = window_enqueued
        if tracer is not None:
            self._sample_slices(enforced, interleave, now)
        if passed:
            for _ in range(interleave):
                for stage, (_kind, _op, _path, share) in passed:
                    stage._passthrough_total += share
            self._deliver_rows(runtime, [row for _stage, row in passed], interleave)

    def _sample_slices(self, enforced: list, interleave: int, now: float) -> None:
        """Take the head-sampling decision of every slice just queued.

        Decisions follow submission order (round, kind, stage): tracer
        ordinals are world-global.  A sampled slice gets a record of its
        own, carrying the trace context, in place of the shared one -- this
        tick's slices are the tail of the channel queue -- and its
        ``stage.submit`` point; the drain side and the MDS read the later
        spans off the record.
        """
        tracer = self._tracer
        for il in range(interleave):
            for channel, requests, position, shared in enforced:
                ctx = tracer.sample()
                if ctx is None:
                    continue
                width = len(requests)
                channel._queue[(il - interleave) * width + position] = batch_request(
                    shared.op, shared.path, shared.job_id, shared.count,
                    submitted_at=now, kind_hint=shared.kind_hint, trace=ctx,
                )
                tracer.emit_point(
                    ctx, "stage.submit", now,
                    op=shared.op.value, channel=channel.channel_id, count=shared.count,
                )

    def _start_job(self, runtime: _JobRuntime) -> None:
        spec = runtime.spec
        runtime.started = True
        if spec.setup is Setup.BASELINE:
            batch_submit = partial(self._deliver_rows, runtime)
        else:
            unlimited = spec.setup is Setup.PASSTHROUGH
            for i in range(spec.n_stages):
                stage = DataPlaneStage(
                    StageIdentity(
                        stage_id=f"{spec.job_id}-stage{i}",
                        job_id=spec.job_id,
                        hostname=f"node-{spec.job_id}-{i}",
                    ),
                    # Nothing reaches the sink of a world stage (the replay
                    # rows fill its channels directly, and the drain tick
                    # collects its grants); a record handed to it would be
                    # delivered like an unenforced row.
                    sink=lambda req: self._deliver_rows(
                        runtime,
                        ((MDS_KIND_BY_OP[req.op], req.op, req.path, req.count),),
                        1,
                    ),
                    pfs_mounts=(PFS_MOUNT,),
                    telemetry=self.telemetry,
                    now=self.env.now,
                )
                self._build_channels(stage, spec, unlimited)
                if self.orphan_policy is not None:
                    stage.set_orphan_policy(
                        self.orphan_policy, self.controller.config.loop_interval
                    )
                runtime.stages.append(stage)
                if self.racks:
                    rack = self._rack_for_stage(spec.job_id, i)
                    rack.register(stage)
                    self.controller.register_stage(
                        stage.identity, rack.local_id, now=self.env.now
                    )
                else:
                    self.controller.register(stage, now=self.env.now)
            # ``runtime.stages`` is emptied in place when the job completes,
            # never replaced, so the sink may hold the list itself.
            batch_submit = partial(self._submit_stage_rows, runtime, runtime.stages)
        replayer = runtime.replayer
        runtime.driver = ReplayDriver(
            self.env,
            replayer,
            None,
            job_id=spec.job_id,
            start=self.env.now,
            batch_submit=batch_submit,
        )
        # Preallocate the delivery-window slots for every kind this job
        # will replay (the delivery loops then never take the interning path).
        for kind in replayer.kinds:
            if kind not in runtime.window_index:
                runtime.window_slot(kind)

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
                    op_classes=MDS_CLASSES,
                )
            )
        # Passthrough keeps channels unlimited forever by not installing
        # policies; PADLL's rates arrive from the control plane.
        del unlimited

    # -- per-tick housekeeping ----------------------------------------------------
    def _drain_tick(self, now: float) -> None:
        for runtime in self._jobs.values():
            if runtime.stages:
                self._drain_stages(runtime, now)
        if self._undelivered:
            # Every delivery of this instant is done (replay ticks run
            # before this one): report what found no MDS, once per kind.
            for kind, count in self._undelivered.items():
                self._client.note_failure(kind, count, now)
            self._undelivered.clear()
        self.cluster.service(now, DT)
        self._check_completions(now)

    def _drain_stages(self, runtime: _JobRuntime, now: float) -> None:
        """Drain a job's stages at ``now``, then deliver what they granted.

        Each stage drains through :meth:`DataPlaneStage.drain_collect`
        (orphan check, ``Channel.drain`` and its telemetry) into one list;
        releasing a grant changes no channel state, so delivering the list
        afterwards, in order, is what a per-grant sink would have done.
        The routing reads only the job, the kind, the path and ``now`` and
        is stable within a tick (``active_mds`` is idempotent per tick),
        so it is resolved once per kind for all of the job's stages, and
        looked up only when the record changes.  A sampled record's trace
        context rides into the MDS queue as the batch's 5th slot, as
        ``MetadataServer.offer`` appends it.
        """
        grants: List[Request] = []
        for stage in runtime.stages:
            stage.drain_collect(now, grants)
        client = self._client
        window_buf = runtime.window_buf
        touch = runtime.window_touched.append
        delivered_total = runtime.delivered_total
        submitted_ops = client.submitted_ops
        routes: Dict[Optional[str], tuple] = {}
        last = None
        for head in grants:
            count = head.count
            if head is not last:
                last = head
                # A world record carries its kind (``kind_hint``, set at
                # submit and kept through a split).
                kind = head.kind_hint
                route = routes.get(kind)
                if route is None:
                    routes[kind] = route = self._route(runtime, kind, head.path, now)
                slot, cost, mds, mds_slot, aside = route
                ctx = head.trace
            accumulated = window_buf[slot]
            if accumulated == 0.0:
                touch(slot)
            window_buf[slot] = accumulated + count
            delivered_total += count
            submitted_ops += count
            if mds is not None:
                if ctx is None:
                    mds._queue.append([mds_slot, count, cost, now])
                else:
                    mds._queue.append([mds_slot, count, cost, now, ctx])
                mds._queued_units += cost * count
            elif aside is not None:
                aside(count)
        runtime.delivered_total = delivered_total
        client.submitted_ops = submitted_ops

    def _check_completions(self, now: float) -> None:
        # A job is only complete once the FS actually served its work: a
        # failed/recovering MDS, or one with a deep queue, blocks completion.
        # A failed server still goes through ``active_mds`` here, which
        # starts the failover timer if this tick's service failed it.
        mds = self.cluster.active
        if mds.failed:
            mds = self.cluster.active_mds(now)
        # ``mds.queue_delay <= DT``, read without its property.
        fs_healthy = mds is not None and mds._queued_units / mds.config.capacity <= DT
        for runtime in self._jobs.values():
            if runtime.completed_at is not None or runtime.driver is None:
                continue
            if (
                fs_healthy
                and runtime.driver.finished_at is not None
                and runtime.backlog() <= 1e-6
            ):
                runtime.completed_at = now
                # The job leaves the system: its stages deregister, and
                # algorithms redistribute its share (Fig. 5's exits).
                for i, stage in enumerate(runtime.stages):
                    self.controller.deregister(stage.identity.stage_id)
                    if self.racks:
                        self._rack_for_stage(runtime.spec.job_id, i).deregister(
                            stage.identity.stage_id
                        )
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
            self.env, DT, self._drain_tick, start=0.0, name="drain", defer=1
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
