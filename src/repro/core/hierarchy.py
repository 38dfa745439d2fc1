"""Hierarchical control plane: per-rack local controllers.

The flat plane talks to every stage directly -- O(stages) RPC endpoints
per loop tick, the scalability ceiling the paper's section VI points at.
MIDAS-style metadata-QoS middleware scales this with proxy aggregation:
a **local controller** per node/rack registers its stages locally,
aggregates their window statistics into per-job demand partials, and
fans a pushed job-level rate out to its stages.  The global plane then
talks to O(racks) endpoints.

The hierarchical plane *is* the flat plane's loop -- tick, collect walk
and sessions, policies, the allocate/clamp/log cycle over arrays,
liveness accounting, the ``control.cycle`` event are all inherited.  It
overrides exactly what the topology changes:

* **endpoints** -- collects poll the attached locals, not stages;
* **collect message** -- :class:`CollectAggregate` instead of
  ``CollectStats``; the reply is a per-job :class:`AggregateStats`;
* **demand merge** -- ``_job_demand_vec`` sums per-local partials in
  one ``np.bincount`` (below);
* **fan-out** -- ``_push_rates`` sends one :class:`EnforceJobRateBatch`
  per hosting local instead of one ``EnforceRate`` per stage
  (``_push_job_rate``, a single policy's push, is a batch of one), and
  ``_deliver_rates`` hands the cycle's per-stage rates to an
  ``enforce_array_sink`` instead when the plane has one;
* **eviction scope** -- evicting a silent local removes all its stages;
* **trust** -- a local may report only jobs it hosts, each once, with a
  finite demand >= 0; any other reply is refused as that local's collect
  miss (``_vet_replies``, a ``control.reply_refused`` event), so one
  local cannot move the rates of jobs it does not run;

plus the bookkeeping of which local hosts which stage.

Equivalence contract: on a fault-free fabric, with every job's stages
hosted by a single local controller (the placement
:class:`~repro.experiments.harness.ReplayWorld` uses), the hierarchical
plane computes *bit-identical* demand signals and pushes *identical*
per-stage rates in the same order as the flat plane -- a local folds its
stages with the flat plane's own
:func:`~repro.core.controller.fold_stage_demand`, and the per-stage rate
split ``max(MIN_RATE, rate / n_stages)`` is computed once globally, so no
float is ever re-associated.  ``tests/core/test_hierarchy.py`` asserts
the enforcement logs match cycle for cycle.  (The flat plane is *not*
the one-local case of this one: it folds every stage into one running
sum, ``(acc + offered) + drain`` per stage, where a local per stage
would contribute ``acc + (offered + drain)``.)

Over a fabric that defers :class:`CollectAggregate` (an engine attached,
the verb not in ``sync_messages``), the aggregates are collected through
the session machinery like any flat collect: the sessions poll local
controllers instead of stages, and evicting an unresponsive local evicts
all of its stages at once.

Split-job placement / demand-merge protocol
-------------------------------------------
Jobs are *not* required to live on one rack.  When a job's stages span
several locals, each local reports a **partial** per-job demand in its
:class:`AggregateStats` (folded over just its hosted stages), and
``_job_demand_vec`` merges the partials at the global tier: ``sum over
locals of partial * staleness_discount``, where the discount
``0.5 ** (age / halflife)`` (a half-life of ``STALE_HALFLIFE`` loop
intervals) is per-*local* -- one slow rack dims only its own
contribution to a spanning job, not its rack-mates'.
Enforcement fans back out with the per-stage split ``max(MIN_RATE, rate
/ job.n_stages)`` computed **once** at the global tier from the job's
*total* stage count, then pushed to every hosting local exactly once.
There is one enforcement verb toward a local,
:class:`EnforceJobRateBatch`: the algorithm's cycle sends one batch per
hosting local with the entries in allocation order, so a cycle costs
O(locals) messages instead of O(jobs x locals); a policy push is a batch
of one.  With a single-rack job this reduces term-for-term to the
whole-job-per-rack behaviour (one partial, one entry), which is why the
flat-equivalence contract above survives split placement.

A local is an address: :meth:`HierarchicalControlPlane.attach_local`
binds ``(local_id, handle)`` on the fabric, and ``register_stage`` only
records which local hosts a stage.  Whoever owns a
:class:`LocalController` registers the stage on it first (a replay
world's racks, a ``stage-host`` process whose local answers over the
wire); a handle need not be a ``LocalController`` at all -- the sharded
coordinator binds one function per rack that answers from the demand
vector it already holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import ConfigError, RPCError, StageNotRegistered
from repro.core.algorithms import MIN_RATE
from repro.core.controller import (
    STALE_HALFLIFE,
    ControlPlane,
    CycleEvent,
    fold_stage_demand,
)
from repro.core.rpc import (
    CollectStats,
    EnforceRate,
    Ping,
    RpcMessage,
    StageEndpoint,
)
from repro.core.stage import DataPlaneStage, StageIdentity

__all__ = [
    "CollectAggregate",
    "AggregateStats",
    "EnforceJobRateBatch",
    "LocalController",
    "HierarchicalControlPlane",
    "PLACEMENTS",
    "check_placement",
    "rack_index",
]

#: How a world spreads stages over racks: ``"job"`` pins each job to one
#: rack, ``"split"`` spreads a job's stages across racks.
PLACEMENTS = ("job", "split")


def check_placement(placement: str) -> str:
    """``placement`` if it names one of :data:`PLACEMENTS`; else ConfigError."""
    if placement not in PLACEMENTS:
        raise ConfigError(f"placement must be one of {PLACEMENTS}, got {placement!r}")
    return placement


def rack_index(placement: str, job: int, stage: int, n_racks: int) -> int:
    """Rack hosting stage ``stage`` of the ``job``-th registered job.

    ``"job"`` round-robins whole jobs in registration order; ``"split"``
    puts stage ``i`` of job ``k`` on rack ``(k + i) % n_racks``, so a
    multi-stage job spans racks, and with one stage per job the two agree.
    """
    if placement == "split":
        return (job + stage) % n_racks
    return job % n_racks


@dataclass(frozen=True, slots=True)
class CollectAggregate(RpcMessage):
    """Ask a local controller for its per-job demand aggregate."""

    now: float
    channel: str
    loop_interval: float


class AggregateStats(NamedTuple):
    """A local's reply to :class:`CollectAggregate`: per hosted job, its
    demand partial and its stage count on this local, as three aligned
    sequences.

    A :class:`LocalController` fills them with tuples; the sharded
    coordinator hands ``demand`` over as a float64 slice of the vector it
    already holds.  The plane keys replies by endpoint, so the record
    names no local and no time.
    """

    job_ids: Tuple[str, ...]
    demand: Any
    stage_counts: Tuple[int, ...]


@dataclass(frozen=True, slots=True)
class EnforceJobRateBatch(RpcMessage):
    """The enforcement verb toward a local: job rates to fan out.

    ``entries`` is ``(job_id, rate, burst)`` triples, each rate already
    per-stage split at the global tier.  The algorithm's cycle sends one
    batch per hosting local with the entries in allocation order --
    ``O(locals)`` messages per cycle, not ``O(jobs x hosting locals)``;
    a policy push is a batch of one.  On a faulty fabric the batch is
    one message: losing it loses the local's whole cycle of rates, which
    is exactly how a real batched push RPC fails.
    """

    channel_id: str
    now: float
    entries: Tuple[Tuple[str, float, Optional[float]], ...]


class LocalController:
    """Per-node/rack aggregator between the global plane and its stages.

    Handles three verbs: :class:`CollectAggregate` (collect every local
    stage's window stats and fold them into per-job demand partials with
    the flat plane's exact arithmetic), :class:`EnforceJobRateBatch` (fan
    each entry's per-stage rate out to that job's local stages), and
    :class:`Ping`.
    """

    def __init__(self, local_id: str) -> None:
        if not local_id:
            raise ConfigError("local controller needs an id")
        self.local_id = local_id
        #: stage_id -> RPC handler, in registration order.
        self._handlers: Dict[str, Callable[[RpcMessage], Any]] = {}
        self._identities: Dict[str, StageIdentity] = {}
        #: job_id -> local stage ids, in registration order.
        self._job_stages: Dict[str, List[str]] = {}

    # -- local registry ----------------------------------------------------
    @property
    def stage_ids(self) -> List[str]:
        return list(self._handlers)

    def register(self, stage: DataPlaneStage) -> None:
        self.register_endpoint(stage.identity, StageEndpoint(stage).handle)

    def register_endpoint(
        self, identity: StageIdentity, handler: Callable[[RpcMessage], Any]
    ) -> None:
        stage_id = identity.stage_id
        if stage_id in self._handlers:
            raise ConfigError(
                f"stage {stage_id!r} already registered with local "
                f"{self.local_id!r}"
            )
        self._handlers[stage_id] = handler
        self._identities[stage_id] = identity
        self._job_stages.setdefault(identity.job_id, []).append(stage_id)

    def deregister(self, stage_id: str) -> None:
        identity = self._identities.pop(stage_id, None)
        if identity is None:
            raise StageNotRegistered(
                f"stage {stage_id!r} not registered with local {self.local_id!r}"
            )
        del self._handlers[stage_id]
        stages = self._job_stages[identity.job_id]
        stages.remove(stage_id)
        if not stages:
            del self._job_stages[identity.job_id]

    # -- RPC surface -------------------------------------------------------
    def handle(self, message: RpcMessage) -> Any:
        if isinstance(message, CollectAggregate):
            return self._collect_aggregate(message)
        if isinstance(message, EnforceJobRateBatch):
            return self._enforce_batch(message)
        if isinstance(message, Ping):
            return message.payload
        raise RPCError(
            f"local {self.local_id!r}: unhandled message type "
            f"{type(message).__name__}"
        )

    def _collect_aggregate(self, message: CollectAggregate) -> AggregateStats:
        per_job: Dict[str, float] = {}
        collect = CollectStats(message.now)
        channel = message.channel
        loop_interval = message.loop_interval
        for handler in self._handlers.values():
            st = handler(collect)
            if st is not None:
                fold_stage_demand(per_job, st, channel, loop_interval)
        job_stages = self._job_stages
        return AggregateStats(
            tuple(per_job),
            tuple(per_job.values()),
            tuple([len(job_stages.get(job_id, ())) for job_id in per_job]),
        )

    def _enforce_batch(self, message: EnforceJobRateBatch) -> bool:
        for job_id, rate, burst in message.entries:
            enforce = EnforceRate(message.channel_id, rate, message.now, burst)
            for stage_id in self._job_stages.get(job_id, ()):
                try:
                    self._handlers[stage_id](enforce)
                except ConfigError:
                    # The stage has no such channel: the rule does not apply.
                    continue
        return True


class AggregateCycleEvent(CycleEvent):
    """The hierarchical plane's ``control.cycle`` row: locals report
    aggregates, so ``observed`` is job-level per local and the fields
    carry ``hierarchical=True``."""

    __slots__ = ()

    names = CycleEvent.names | {"hierarchical"}

    @staticmethod
    def observed_fields(observed: Optional[tuple]) -> Dict[str, object]:
        view: Dict[str, Dict[str, Dict[str, float]]] = {}
        if observed is not None:
            it = iter(observed)
            for local_id, agg in zip(it, it):
                view[local_id] = {
                    job_id: {"demand": demand, "n_stages": n_stages}
                    for job_id, demand, n_stages in zip(
                        agg.job_ids,
                        np.asarray(agg.demand, dtype=np.float64).tolist(),
                        agg.stage_counts,
                    )
                }
        return {"hierarchical": True, "observed": view}


class HierarchicalControlPlane(ControlPlane):
    """A :class:`ControlPlane` that talks to local controllers.

    Global bookkeeping (jobs, reservations, policies, the allocation
    algorithm, the enforcement log) is inherited unchanged; only the
    transport topology differs -- collects poll locals, enforcement fans
    out through locals, and liveness eviction removes a silent local's
    entire stage population.

    The demand merge is one ``np.bincount`` over every local's partials
    (every reply's ``demand`` concatenated as it is), with the
    concatenated plane-order index cached until placement or the locals'
    job lists change.  Given an ``enforce_array_sink(now, per_stage)`` --
    ``per_stage`` aligned to :meth:`vector_job_ids` -- the cycle's
    per-stage rates go to the sink instead of the RPC fabric (the sharded
    coordinator writes them straight into its rack blocks' slot arrays);
    without one -- every :class:`LocalController` world -- they leave as
    batched fabric pushes.  Both deliver the same per-stage floats
    (``tests/core/test_vector_hierarchy.py`` pins this cycle-for-cycle).
    """

    def __init__(
        self,
        *args,
        enforce_array_sink: Optional[Callable[[float, np.ndarray], None]] = None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        #: local_id -> its bound handler, in attach order.
        self._locals: Dict[str, Callable[[RpcMessage], Any]] = {}
        #: stage_id -> hosting local_id.
        self._stage_local: Dict[str, str] = {}
        # job_id -> hosting locals (first-appearance order over the
        # job's stage list), rebuilt lazily whenever placement changes.
        # Enforcement reads this every cycle; placement changes only at
        # registration/eviction time, so the cache is almost always warm.
        self._hosting_version = -1
        self._hosting_locals: Dict[str, List[str]] = {}
        self._enforce_array_sink = enforce_array_sink
        # Rebuilt with the base class's frozen job order.
        self._vec_pos: Dict[str, int] = {}
        self._vec_n_stages: Optional[np.ndarray] = None
        #: The demand fold's ``(key, idx, sel)`` (:meth:`_fold_index`).
        self._fold: Optional[tuple] = None
        #: ``(placement version, job id tuples)`` whose ids last passed
        #: :meth:`_vet_replies`.
        self._vetted_ids: Optional[tuple] = None
        #: ``(stats, fold input)`` of the last vetted collect, taken by the
        #: next :meth:`_job_demand_vec` of those same stats.
        self._gathered: Optional[tuple] = None

    # -- topology ----------------------------------------------------------
    @property
    def locals(self) -> Dict[str, Callable[[RpcMessage], Any]]:
        """local_id -> the handler bound at that address, attach order."""
        return dict(self._locals)

    def attach_local(
        self, local_id: str, handle: Callable[[RpcMessage], Any]
    ) -> None:
        """Bind a local's handler (a :class:`LocalController`'s ``handle``,
        a wire relay, a rack function) at ``local_id``."""
        if not local_id:
            raise ConfigError("a local needs an id")
        if local_id in self._locals:
            raise ConfigError(f"local {local_id!r} already attached")
        self.fabric.bind(local_id, handle)
        self._locals[local_id] = handle

    def register(self, stage: DataPlaneStage, now: float = 0.0) -> None:
        raise ConfigError(
            "hierarchical plane registers stages through register_stage"
        )

    def register_endpoint(self, identity, handler, now: float = 0.0) -> None:
        raise ConfigError(
            "hierarchical plane registers stages through register_stage"
        )

    def register_stage(
        self, identity: StageIdentity, local_id: str, now: float = 0.0
    ) -> None:
        """Record that the local at ``local_id`` hosts a stage.

        The stage joins that local first (``LocalController.register``, or
        wherever the handler finds it): the plane keeps only job
        membership and the stage -> local map.
        """
        if local_id not in self._locals:
            raise ConfigError(f"no local controller {local_id!r} attached")
        if identity.stage_id in self._stages:
            raise ConfigError(f"stage {identity.stage_id!r} already registered")
        self._record_stage(identity, now)
        self._stage_local[identity.stage_id] = local_id

    def local_stages(self, local_id: str) -> List[str]:
        """The stages ``local_id`` hosts, in registration order."""
        return [
            stage_id
            for stage_id, host in self._stage_local.items()
            if host == local_id
        ]

    def _forget_stage(self, stage_id: str) -> StageIdentity:
        identity = super()._forget_stage(stage_id)
        del self._stage_local[stage_id]
        return identity

    def deregister(self, stage_id: str) -> None:
        """Forget a stage (its local's owner deregisters it there)."""
        self._forget_stage(stage_id)

    def _job_hosting_locals(self, job_id: str) -> List[str]:
        """Locals hosting ``job_id``'s stages, in first-appearance order.

        Exactly the order the per-push fan-out's dedup-while-scanning
        produced; cached across cycles because enforcement walks it for
        every allocated job.
        """
        if self._hosting_version != self._placement_version:
            stage_local = self._stage_local
            mapping: Dict[str, List[str]] = {}
            for jid, job in self._jobs.items():
                seen: set = set()
                hosts: List[str] = []
                for stage_id in job.stage_ids:
                    local_id = stage_local.get(stage_id)
                    if local_id is None or local_id in seen:
                        continue
                    seen.add(local_id)
                    hosts.append(local_id)
                mapping[jid] = hosts
            self._hosting_locals = mapping
            self._hosting_version = self._placement_version
        return self._hosting_locals.get(job_id, [])

    # -- collect -----------------------------------------------------------
    _endpoint_field = "local"

    def _vet_replies(
        self,
        stats: Dict[str, AggregateStats],
        now: float,
        prior: Optional[Dict[str, int]],
    ) -> None:
        """Refuse each reply that reports a job its local does not host,
        reports a job twice, or reports a demand that is not finite and
        >= 0: one local sets the rates of its own jobs only.

        Ids are checked only when the layout or the reported id tuples
        change (a steady world hands over the same tuples every cycle);
        the demands are checked on the fold's own concatenation, once per
        tick, and only a failure looks for the local at fault.  A job the
        plane no longer knows (finished since the reply was taken) folds
        to nothing and is not refused.
        """
        gathered = self._gather(stats)
        local_ids, job_id_lists, weights = gathered
        if weights is None:
            return
        refused: Dict[str, str] = {}
        key = (self._placement_version, job_id_lists)
        if key != self._vetted_ids:
            for local_id, job_ids in zip(local_ids, job_id_lists):
                reason = self._foreign_ids(local_id, job_ids)
                if reason is not None:
                    refused[local_id] = reason
            if not refused:
                self._vetted_ids = key
        if weights.size and not (weights.min() >= 0.0 and weights.max() < np.inf):
            for local_id in local_ids:
                demand = np.asarray(stats[local_id].demand, dtype=np.float64)
                if demand.size and not (demand.min() >= 0.0 and demand.max() < np.inf):
                    refused.setdefault(local_id, "a demand not finite and >= 0")
        if not refused:
            self._gathered = (stats, gathered)
            return
        self._refuse(stats, refused, now, prior)

    def _foreign_ids(self, local_id: str, job_ids: Tuple[str, ...]) -> Optional[str]:
        """Why ``local_id`` may not report ``job_ids``, or None."""
        jobs = self._jobs
        seen: set = set()
        for job_id in job_ids:
            if job_id in seen:
                return f"job {job_id!r} reported twice"
            seen.add(job_id)
            if job_id in jobs and local_id not in self._job_hosting_locals(job_id):
                return f"job {job_id!r} is not hosted here"
        return None

    def _collect_endpoints(self) -> List[str]:
        return list(self._locals)

    def _collect_message(self, now: float) -> CollectAggregate:
        config = self.config
        return CollectAggregate(now, config.algorithm_channel, config.loop_interval)

    # -- demand & enforcement ----------------------------------------------
    def _ensure_vector_layout(self) -> None:
        if self._vec_version == self._placement_version:
            return
        super()._ensure_vector_layout()
        job_ids = self._vec_job_ids
        self._vec_pos = {job_id: i for i, job_id in enumerate(job_ids)}
        self._vec_n_stages = np.array(
            [float(self._jobs[job_id].n_stages) for job_id in job_ids]
        )

    def hosting_locals(self, job_id: str) -> List[str]:
        """Locals hosting ``job_id``, first-appearance order (public)."""
        return list(self._job_hosting_locals(job_id))

    def _fold_index(self, job_id_lists: Tuple[Tuple[str, ...], ...]):
        """``(idx, sel)``: the plane-order index of the concatenated
        partials, or of ``partials[sel]`` when some reported jobs have
        finished since (``sel`` masks them out); cached on the layout and
        the locals' job id tuples (a sharded rack hands the same tuple
        over every cycle)."""
        key = (self._vec_version, job_id_lists)
        fold = self._fold
        if fold is None or fold[0] != key:
            get = self._vec_pos.get
            idx = np.array(
                [get(job_id, -1) for job_ids in job_id_lists for job_id in job_ids],
                dtype=np.intp,
            )
            known = idx >= 0
            sel = None if known.all() else np.flatnonzero(known)
            fold = self._fold = (key, idx if sel is None else idx[sel], sel)
        return fold[1], fold[2]

    def _gather(
        self, stats: Dict[str, AggregateStats]
    ) -> Tuple[List[str], Tuple[Tuple[str, ...], ...], Optional[np.ndarray]]:
        """``(local ids, job id tuples, weights)`` of the aggregates in
        ``stats``: the fold's input, each local's partial times its own
        staleness discount, concatenated in stats order (``None`` when
        there is no aggregate)."""
        halflife = STALE_HALFLIFE * self.config.loop_interval
        ages = self._stats_age
        local_ids: List[str] = []
        job_id_lists: List[Tuple[str, ...]] = []
        partials: list = []
        for local_id, agg in stats.items():
            if not isinstance(agg, AggregateStats):
                continue
            partial = agg.demand
            if ages:
                age = ages.get(local_id, 0.0)
                if age > 0.0:
                    partial = np.multiply(partial, 0.5 ** (age / halflife))
            local_ids.append(local_id)
            job_id_lists.append(agg.job_ids)
            partials.append(partial)
        # A tuple of floats and a float64 array concatenate alike.
        weights = np.concatenate(partials, dtype=np.float64) if partials else None
        return local_ids, tuple(job_id_lists), weights

    def _job_demand_vec(self, stats: Dict[str, AggregateStats]) -> np.ndarray:
        """Merged per-job demand vector: the per-local partials summed.

        One ``np.bincount`` over every local's partials, concatenated in
        stats order, each local's partial times its own staleness
        discount (:meth:`_gather`, done once per tick: the collect's
        vetting hands its concatenation over).  ``bincount`` adds each
        bin's weights one at a time in element order from 0.0, and a
        local reports a job at most once (:meth:`_vet_replies`), so each
        job's sum is the locals' partials added in stats order.
        """
        gathered = self._gathered
        self._gathered = None
        if gathered is not None and gathered[0] is stats:
            _, job_id_lists, weights = gathered[1]
        else:
            _, job_id_lists, weights = self._gather(stats)
        n_jobs = len(self._vec_job_ids)
        idx, sel = self._fold_index(job_id_lists)
        if not idx.size:
            # bincount of nothing is an integer array.
            return np.zeros(n_jobs)
        if sel is not None:
            weights = weights[sel]
        return np.bincount(idx, weights=weights, minlength=n_jobs)

    def _deliver_rates(self, now: float, rates: np.ndarray) -> None:
        sink = self._enforce_array_sink
        if sink is None:
            super()._deliver_rates(now, rates)
        else:
            sink(now, np.maximum(MIN_RATE, rates / self._vec_n_stages))

    def _push_job_rate(
        self,
        job_id: str,
        channel_id: str,
        rate: float,
        now: float,
        burst: Optional[float] = None,
    ) -> None:
        """A policy push (or a pause) is a batch of one."""
        self._push_rates({job_id: rate}, channel_id, now, burst)

    def _push_rates(
        self,
        rates: Dict[str, float],
        channel_id: str,
        now: float,
        burst: Optional[float] = None,
    ) -> None:
        """Fan job-level rates out as one batch per hosting local.

        Each rate is split once, here, from the job's *total* stage
        count, so locals receive a final per-stage rate and no float is
        re-associated.  A job spanning R racks costs R batch *entries*,
        not R messages; within each batch the entries keep ``rates``
        order (allocation order for the algorithm's cycle).
        """
        batches: Dict[str, List[Tuple[str, float, Optional[float]]]] = {}
        for job_id, rate in rates.items():
            job = self._jobs.get(job_id)
            if job is None or not job.stage_ids:
                continue
            per_stage = max(MIN_RATE, rate / job.n_stages)
            per_burst = None if burst is None else max(burst / job.n_stages, per_stage)
            entry = (job_id, per_stage, per_burst)
            for local_id in self._job_hosting_locals(job_id):
                batch = batches.get(local_id)
                if batch is None:
                    batches[local_id] = [entry]
                else:
                    batch.append(entry)
        for local_id, entries in batches.items():
            try:
                self.fabric.call(
                    local_id, EnforceJobRateBatch(channel_id, now, tuple(entries))
                )
            except RPCError:
                # A lost push: the fabric counts and names it (``dropped``,
                # ``rpc.drop``); it is not a collect failure.
                pass

    # -- liveness ----------------------------------------------------------
    def detach_local(self, local_id: str) -> None:
        """Detach a local and all of its stages (it stopped answering, or
        its stage host's link closed)."""
        if self._locals.pop(local_id, None) is None:
            raise StageNotRegistered(f"local {local_id!r} not attached")
        self._drop_endpoint(local_id)
        for stage_id in self.local_stages(local_id):
            self._forget_stage(stage_id)

    _evict = detach_local

    # -- introspection -------------------------------------------------------
    _cycle_event = AggregateCycleEvent

    def _cycle_view(self, stats: Dict[str, AggregateStats]) -> Optional[tuple]:
        """The row's ``observed``: ``(local_id, AggregateStats, ...)`` flat,
        or None when no aggregate came in.  A ``demand`` that is an array
        is copied: the sharded coordinator's is a slice view of the
        epoch's demand vector, and a row holds its own values, not the
        whole vector behind a view its owner is free to reuse."""
        view = []
        for local_id, agg in stats.items():
            if not isinstance(agg, AggregateStats):
                continue
            if isinstance(agg.demand, np.ndarray):
                agg = agg._replace(demand=agg.demand.copy())
            view += (local_id, agg)
        return tuple(view) if view else None
