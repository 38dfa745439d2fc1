"""The PADLL control plane.

A logically centralised component with global visibility: stages register
as they start (reporting job id, host, pid), the control plane groups
stages by job and runs a feedback loop that

1. **collects** per-job demand from every local controller over RPC,
2. **verifies** the installed policies against the current time/state, and
3. **enforces** new rates -- from explicit policy rules and/or from a
   cluster-wide allocation algorithm (static, priority, proportional
   sharing, DRF).

The plane talks only to local controllers
(:class:`~repro.core.hierarchy.LocalController` or any handler answering
its two verbs): a stage registered in process joins the local the plane
keeps for its job, and a caller that places stages itself attaches its
own locals (racks, stage hosts).  Stages of the same job are orchestrated
as one entity: a job-level rate is split equally across the job's stages
(matching the paper's description of distributed jobs with one stage per
application instance).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError, PolicyError, RPCError, StageNotRegistered
from repro.core.algorithms import AllocationAlgorithm, MIN_RATE
from repro.core.fabric import FaultyFabric
from repro.core.policies import PolicyRule
from repro.core.ringlog import RingLog
from repro.core.hierarchy import (
    AggregateStats,
    CollectAggregate,
    EnforceJobRateBatch,
    LocalController,
)
from repro.core.session import CollectSession
from repro.core.stage import DataPlaneStage, StageIdentity
from repro.telemetry.events import RowEvent

__all__ = ["JobInfo", "ControlPlaneConfig", "CycleEvent", "ControlPlane"]

# The session machine's timings, in loop intervals: the loop's period is
# stated once (``ControlPlaneConfig.loop_interval``) and each is a multiple.

#: Reply deadline of one session collect.  Wider than the loop, so a slow
#: but alive link degrades through staleness before it times out.
COLLECT_DEADLINE = 2.5
#: Extra attempts after a timeout/failure before it counts as a miss.
MAX_COLLECT_RETRIES = 1
#: Backoff before the first retry; doubles with every further attempt.
RETRY_BACKOFF = 0.25
#: Each retry of one collect waits twice as long as the one before it.
RETRY_BACKOFF_FACTOR = 2.0
#: How long a stale (pre-deadline) reply stays usable by the allocator.
STALE_TTL = 5.0
#: Half-life of the discount on a stale reply's demand.
STALE_HALFLIFE = 2.0


@dataclass(slots=True)
class JobInfo:
    """Control-plane bookkeeping for one job."""

    job_id: str
    stage_ids: List[str] = field(default_factory=list)
    #: Guaranteed rate used by reservation-based algorithms.
    reservation: float = 0.0
    registered_at: float = 0.0

    @property
    def n_stages(self) -> int:
        return len(self.stage_ids)


@dataclass(slots=True)
class ControlPlaneConfig:
    """Loop tuning knobs."""

    #: Feedback-loop period in seconds: the one statement of it.  The
    #: session timings above, the live loop's tick and the orphan
    #: threshold of every stage this plane enforces follow it.
    loop_interval: float = 1.0
    #: Channel the cluster-wide algorithm controls (e.g. "metadata").
    algorithm_channel: str = "metadata"
    #: Consecutive failed stat collections after which a stage is presumed
    #: dead and deregistered (its job's share is redistributed).  None
    #: disables liveness eviction -- a dependability knob from the paper's
    #: section VI future-work discussion.
    max_missed_collects: Optional[int] = None
    #: Cap on the enforcement/eviction audit trails (ring buffers).  The
    #: default comfortably holds every paper-scale experiment's full trail
    #: while bounding memory in long-running live loops; None = unbounded.
    history_limit: Optional[int] = 65536

    def __post_init__(self) -> None:
        if self.loop_interval <= 0:
            raise ConfigError(
                f"loop interval must be positive, got {self.loop_interval}"
            )
        if self.max_missed_collects is not None and self.max_missed_collects < 1:
            raise ConfigError(
                f"max_missed_collects must be >= 1, got {self.max_missed_collects}"
            )
        if self.history_limit is not None and self.history_limit < 1:
            raise ConfigError(
                f"history_limit must be >= 1, got {self.history_limit}"
            )


def _policy_targets(policy: Optional[tuple]) -> Dict[str, float]:
    """A row's flat ``(job, channel, rate, ...)`` policy pushes, keyed
    ``"job:channel"``."""
    if policy is None:
        return {}
    it = iter(policy)
    return {f"{job_id}:{channel_id}": rate for job_id, channel_id, rate in zip(it, it, it)}


def _job_rates(cycle: Optional[tuple]) -> Dict[str, float]:
    """A row's algorithm rates, keyed by job."""
    if cycle is None:
        return {}
    return dict(zip(cycle[0], cycle[3].tolist()))


class CycleEvent(RowEvent):
    """One ``control.cycle`` record (:meth:`ControlPlane._emit_cycle`),
    kept as the cycle's inputs and rendered to ``fields`` on read.

    ``observed`` is what the collect saw: ``(local_id, AggregateStats,
    ...)`` flat, rendered per local and job as its demand partial and
    stage count on that local.  ``cycle`` is the algorithm's ``(job_ids,
    demand, reservations, rates)``, with ``demand`` and ``reservations``
    None on a health-paused cycle (every job at ``MIN_RATE``), and None
    when the algorithm did not run.  ``policy`` is the policy pushes as
    flat ``(job, channel, rate, ...)`` triples, None when there were
    none.  ``prev_cycle`` / ``prev_policy`` are the previous row's, which
    the deltas are rendered against.
    """

    __slots__ = (
        "iteration", "paused", "observed", "algorithm", "cycle", "policy",
        "prev_cycle", "prev_policy",
    )

    names = frozenset({
        "iteration", "paused", "observed", "demand", "reservations",
        "algorithm", "rates", "policy_rates", "deltas",
    })

    def __init__(
        self,
        time: float,
        iteration: int,
        paused: bool,
        observed: Optional[tuple],
        algorithm: Optional[str],
        cycle: Optional[tuple],
        policy: Optional[tuple],
        prev_cycle: Optional[tuple],
        prev_policy: Optional[tuple],
    ) -> None:
        self.kind = "control.cycle"
        self.time = time
        self.iteration = iteration
        self.paused = paused
        self.observed = observed
        self.algorithm = algorithm
        self.cycle = cycle
        self.policy = policy
        self.prev_cycle = prev_cycle
        self.prev_policy = prev_policy

    def render(self) -> Dict[str, object]:
        observed: Dict[str, Dict[str, Dict[str, float]]] = {}
        if self.observed is not None:
            it = iter(self.observed)
            for local_id, agg in zip(it, it):
                observed[local_id] = {
                    job_id: {"demand": demand, "n_stages": n_stages}
                    for job_id, demand, n_stages in zip(
                        agg.job_ids,
                        np.asarray(agg.demand, dtype=np.float64).tolist(),
                        agg.stage_counts,
                    )
                }
        cycle = self.cycle
        demand: Dict[str, float] = {}
        reservations: Dict[str, float] = {}
        if cycle is not None and cycle[1] is not None:
            job_ids, demand_vec, reserved, _ = cycle
            demand = dict(zip(job_ids, demand_vec.tolist()))
            reservations = dict(zip(job_ids, reserved))
        rates = _job_rates(cycle)
        policy_rates = _policy_targets(self.policy)
        prev = {**_job_rates(self.prev_cycle), **_policy_targets(self.prev_policy)}
        deltas = {
            target: rate - prev.get(target, 0.0)
            for target, rate in {**rates, **policy_rates}.items()
        }
        return {
            "iteration": self.iteration,
            "paused": self.paused,
            "observed": observed,
            "demand": demand,
            "reservations": reservations,
            "algorithm": self.algorithm,
            "rates": rates,
            "policy_rates": policy_rates,
            "deltas": deltas,
        }


class ControlPlane:
    """Global coordinator of all data-plane stages, through their locals.

    Global bookkeeping -- jobs, reservations, policies, the allocation
    algorithm, the enforcement log -- lives here; each endpoint is a
    local, which liveness eviction removes with its entire stage
    population.

    The demand merge is one ``np.bincount`` over every local's partials
    (every reply's ``demand`` concatenated as it is), with the
    concatenated plane-order index cached until placement or the locals'
    job lists change.  Given an ``enforce_array_sink(now, per_stage)`` --
    ``per_stage`` aligned to :meth:`vector_job_ids` -- the cycle's
    per-stage rates go to the sink instead of the RPC fabric (the sharded
    coordinator writes them straight into its rack blocks' slot arrays);
    without one they leave as batched fabric pushes.  Both deliver the
    same per-stage floats (``tests/core/test_vector_hierarchy.py`` pins
    this cycle-for-cycle).
    """

    def __init__(
        self,
        fabric: Optional[FaultyFabric] = None,
        config: Optional[ControlPlaneConfig] = None,
        algorithm: Optional[AllocationAlgorithm] = None,
        telemetry=None,
        enforce_array_sink: Optional[Callable[[float, np.ndarray], None]] = None,
    ) -> None:
        self.fabric = fabric if fabric is not None else FaultyFabric()
        self.config = config or ControlPlaneConfig()
        self.algorithm = algorithm
        #: Optional PFS health check, assigned by whoever can see the PFS.
        #: The control plane has global visibility, which includes the
        #: storage system itself: while the probe reports unhealthy (e.g.
        #: MDS failover in progress), the loop *pauses* the algorithm
        #: channel -- stages hold their backlog at the compute nodes
        #: instead of feeding a recovery storm to the replacement server.
        self.health_probe: Optional[Callable[[], bool]] = None
        self.pause_ticks = 0
        self._stages: Dict[str, StageIdentity] = {}
        self._jobs: Dict[str, JobInfo] = {}
        self._policies: Dict[str, PolicyRule] = {}
        #: job id -> guaranteed rate.  Keyed by job id, not by JobInfo, so
        #: a reservation (like a policy) can be set before the job's first
        #: stage registers and survives its last stage's eviction.
        self._reservations: Dict[str, float] = {}
        #: (now, job_id, rate) tuples of every algorithm enforcement -- the
        #: audit trail experiments assert against.  Bounded (ring buffer)
        #: so long-running live loops cannot leak; ``history_limit=None``
        #: restores the unbounded legacy behaviour.
        self.enforcement_log: RingLog = RingLog(self.config.history_limit)
        self.loop_iterations = 0
        self.collect_failures = 0
        #: Session collects: deadline expiries observed.
        self.collect_timeouts = 0
        self._missed_collects: Dict[str, int] = {}
        #: Locals evicted by the liveness check: (time, local_id).
        self.evictions: RingLog = RingLog(self.config.history_limit)
        #: Per-endpoint collect sessions (deferring fabrics only).
        self._sessions: Dict[str, CollectSession] = {}
        #: Age (seconds) of each stats entry the last collect produced;
        #: feeds the allocator's stale-demand discount.  Empty after a
        #: synchronous walk, where every entry is from this very tick.
        self._stats_age: Dict[str, float] = {}
        #: Telemetry spine (None = introspection off).  When attached, every
        #: loop iteration appends one ``control.cycle`` event recording what
        #: the loop saw and what it pushed.
        self._telemetry = telemetry
        #: The last ``control.cycle`` row's ``(cycle, policy)``: what the
        #: next row renders its deltas against.
        self._prev_rates: tuple = (None, None)
        # The cycle's frozen job order, rebuilt lazily when placement
        # changes; reservations have their own dirty flag since
        # set_reservation moves no stage.
        self._placement_version = 0
        self._vec_version = -1
        self._vec_job_ids: Tuple[str, ...] = ()
        self._vec_pos: Dict[str, int] = {}
        self._vec_n_stages: Optional[np.ndarray] = None
        self._vec_res: Optional[np.ndarray] = None
        self._vec_res_values: Tuple[float, ...] = ()
        self._vec_res_dirty = True
        #: local_id -> its bound handler, in attach order.
        self._locals: Dict[str, Callable[[Any], Any]] = {}
        #: local_id -> the in-process local this plane keeps for one job
        #: (:meth:`register_endpoint`); its id is the job's.
        self._job_locals: Dict[str, LocalController] = {}
        #: stage_id -> hosting local_id.
        self._stage_local: Dict[str, str] = {}
        # job_id -> hosting locals (first-appearance order over the job's
        # stage list), rebuilt lazily whenever placement changes.
        self._hosting_version = -1
        self._hosting_locals: Dict[str, List[str]] = {}
        self._enforce_array_sink = enforce_array_sink
        #: The demand fold's ``(key, idx, sel)`` (:meth:`_fold_index`).
        self._fold: Optional[tuple] = None
        #: ``(placement version, job id tuples)`` whose ids last passed
        #: :meth:`_vet_replies`.
        self._vetted_ids: Optional[tuple] = None
        #: ``(stats, fold input)`` of the last vetted collect, taken by the
        #: next :meth:`_job_demand_vec` of those same stats.
        self._gathered: Optional[tuple] = None

    # -- registration -------------------------------------------------------
    def register(self, stage: DataPlaneStage, now: float = 0.0) -> None:
        """Register an in-process stage object: it joins its job's local
        (:meth:`register_endpoint`), which calls the stage directly."""
        self._job_local(stage.identity).register(stage)
        self.register_stage(stage.identity, stage.identity.job_id, now)

    def register_endpoint(
        self,
        identity: StageIdentity,
        handler: Callable[..., object],
        now: float = 0.0,
    ) -> None:
        """Register a stage by identity + RPC handler: it joins the
        :class:`~repro.core.hierarchy.LocalController` this plane keeps
        for its job, attached at the job's id with the job's first stage
        and detached after its last one leaves."""
        self._job_local(identity).register_endpoint(identity, handler)
        self.register_stage(identity, identity.job_id, now)

    def _job_local(self, identity: StageIdentity) -> LocalController:
        """The plane's own local for ``identity``'s job, attached on first
        use; refuses a stage already registered."""
        if identity.stage_id in self._stages:
            raise ConfigError(f"stage {identity.stage_id!r} already registered")
        local_id = identity.job_id
        local = self._job_locals.get(local_id)
        if local is None:
            local = LocalController(local_id)
            self.attach_local(local_id, local.handle)
            self._job_locals[local_id] = local
        return local

    @property
    def locals(self) -> Dict[str, Callable[[Any], Any]]:
        """local_id -> the handler bound at that address, attach order."""
        return dict(self._locals)

    def attach_local(self, local_id: str, handle: Callable[[Any], Any]) -> None:
        """Bind a local's handler (a :class:`LocalController`'s ``handle``,
        a wire relay, a rack function) at ``local_id``."""
        if not local_id:
            raise ConfigError("a local needs an id")
        if local_id in self._locals:
            raise ConfigError(f"local {local_id!r} already attached")
        self.fabric.bind(local_id, handle)
        self._locals[local_id] = handle

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
        self._stages[identity.stage_id] = identity
        job = self._jobs.get(identity.job_id)
        if job is None:
            job = JobInfo(
                job_id=identity.job_id,
                reservation=self._reservations.get(identity.job_id, 0.0),
                registered_at=now,
            )
            self._jobs[identity.job_id] = job
        job.stage_ids.append(identity.stage_id)
        self._stage_local[identity.stage_id] = local_id
        self._placement_version += 1

    def deregister(self, stage_id: str) -> None:
        """Forget a stage; its job goes with its last stage.  A stage of a
        job's in-process local leaves it too (the local is detached when
        empty); a caller's local is told by its owner."""
        local_id = self._stage_local.get(stage_id)
        self._forget_stage(stage_id)
        local = self._job_locals.get(local_id)
        if local is not None:
            local.deregister(stage_id)
            if not local.stage_ids:
                self.detach_local(local_id)

    def _forget_stage(self, stage_id: str) -> StageIdentity:
        """Undo :meth:`register_stage`; the job goes with its last stage."""
        identity = self._stages.pop(stage_id, None)
        if identity is None:
            raise StageNotRegistered(f"stage {stage_id!r} not registered")
        job = self._jobs[identity.job_id]
        job.stage_ids.remove(stage_id)
        if not job.stage_ids:
            del self._jobs[identity.job_id]
        del self._stage_local[stage_id]
        self._placement_version += 1
        return identity

    def detach_local(self, local_id: str) -> None:
        """Detach a local and all of its stages (it stopped answering, its
        stage host's link closed, or its job's last stage left)."""
        if self._locals.pop(local_id, None) is None:
            raise StageNotRegistered(f"local {local_id!r} not attached")
        self._job_locals.pop(local_id, None)
        self.fabric.unbind(local_id)
        self._missed_collects.pop(local_id, None)
        session = self._sessions.pop(local_id, None)
        if session is not None:
            session.abandon()
        for stage_id in self.local_stages(local_id):
            self._forget_stage(stage_id)

    def deregister_job(self, job_id: str) -> None:
        """Remove every stage of a job."""
        job = self._jobs.get(job_id)
        if job is None:
            raise StageNotRegistered(f"job {job_id!r} not registered")
        for stage_id in list(job.stage_ids):
            self.deregister(stage_id)

    @property
    def jobs(self) -> Dict[str, JobInfo]:
        return dict(self._jobs)

    @property
    def stages(self) -> Dict[str, StageIdentity]:
        return dict(self._stages)

    def local_stages(self, local_id: str) -> List[str]:
        """The stages ``local_id`` hosts, in registration order."""
        return [
            stage_id
            for stage_id, host in self._stage_local.items()
            if host == local_id
        ]

    def hosting_locals(self, job_id: str) -> List[str]:
        """Locals hosting ``job_id``'s stages, in first-appearance order
        over its stage list."""
        if self._hosting_version != self._placement_version:
            self._rebuild_hosting()
        return list(self._hosting_locals.get(job_id, ()))

    def _rebuild_hosting(self) -> None:
        """job_id -> hosting locals, cached until placement changes."""
        stage_local = self._stage_local
        mapping: Dict[str, List[str]] = {}
        for job_id, job in self._jobs.items():
            hosts: List[str] = []
            for stage_id in job.stage_ids:
                local_id = stage_local[stage_id]
                if local_id not in hosts:
                    hosts.append(local_id)
            mapping[job_id] = hosts
        self._hosting_locals = mapping
        self._hosting_version = self._placement_version

    def set_reservation(self, job_id: str, rate: float) -> None:
        """Assign a job's guaranteed rate (used by reservation algorithms).

        The job need not be registered: the rate applies whenever it is.
        """
        if rate < 0:
            raise PolicyError(f"reservation must be >= 0, got {rate}")
        self._reservations[job_id] = rate
        job = self._jobs.get(job_id)
        if job is not None:
            job.reservation = rate
        self._vec_res_dirty = True

    @property
    def placement_version(self) -> int:
        """Bumps whenever a stage registers, deregisters, or is evicted.

        Callers holding layout-derived caches (the sharded coordinator's
        slot scatter map) key them on this.
        """
        return self._placement_version

    def vector_job_ids(self) -> Tuple[str, ...]:
        """The cycle's frozen job order (``self._jobs`` order): the
        allocator's arrays and the logged rows are aligned to it."""
        self._ensure_vector_layout()
        return self._vec_job_ids

    def _ensure_vector_layout(self) -> None:
        if self._vec_version == self._placement_version:
            return
        jobs = self._jobs
        job_ids = self._vec_job_ids = tuple(jobs)
        self._vec_pos = {job_id: i for i, job_id in enumerate(job_ids)}
        self._vec_n_stages = np.array(
            [float(len(jobs[job_id].stage_ids)) for job_id in job_ids]
        )
        self._vec_res_dirty = True
        self._vec_version = self._placement_version

    def _reservation_vec(self) -> np.ndarray:
        if self._vec_res_dirty:
            jobs = self._jobs
            values = tuple([jobs[job_id].reservation for job_id in self._vec_job_ids])
            self._vec_res = np.array(values)
            self._vec_res_values = values
            self._vec_res_dirty = False
        return self._vec_res

    # -- policies --------------------------------------------------------------
    def install_policy(self, rule: PolicyRule) -> None:
        if rule.name in self._policies:
            raise PolicyError(f"policy {rule.name!r} already installed")
        self._policies[rule.name] = rule

    def remove_policy(self, name: str) -> None:
        if name not in self._policies:
            raise PolicyError(f"no policy named {name!r}")
        del self._policies[name]

    def replace_policy(self, rule: PolicyRule) -> None:
        """Install ``rule``, superseding any same-named policy.

        The operator service's ``set policy`` admin verb routes through
        here: "the newest instruction applies" without the caller having
        to know whether the name was already installed.  The rule moves
        to the end of the table, so it also wins a priority tie against
        every rule installed before this call.  The new table is swapped
        in whole, so a reader on another thread (a service scrape) sees
        the old rule or the new one, never neither.
        """
        table = dict(self._policies)
        table.pop(rule.name, None)
        table[rule.name] = rule
        self._policies = table

    def set_policy_enabled(self, name: str, enabled: bool) -> None:
        """Flip one installed policy without losing its schedule."""
        rule = self._policies.get(name)
        if rule is None:
            raise PolicyError(f"no policy named {name!r}")
        rule.enabled = bool(enabled)

    @property
    def policies(self) -> Dict[str, PolicyRule]:
        return dict(self._policies)

    # -- the feedback loop ---------------------------------------------------
    def tick(self, now: float) -> None:
        """One control-loop iteration: collect -> verify -> enforce."""
        self.loop_iterations += 1
        stats = self._collect(now)
        telemetry = self._telemetry
        if self.health_probe is not None and not self.health_probe():
            # PFS unhealthy: pause every job's algorithm channel so the
            # outage backlog queues at the stages, not at the recovering
            # server.  Explicit admin policies still apply.
            self.pause_ticks += 1
            policy_rates = self._enforce_policies(now)
            for job_id in self._jobs:
                self._push_job(job_id, self.config.algorithm_channel, MIN_RATE, now)
            if telemetry is not None:
                job_ids = tuple(self._jobs)
                cycle = (job_ids, None, None, np.full(len(job_ids), MIN_RATE))
                self._emit_cycle(telemetry, now, stats, cycle, policy_rates, True)
            return
        policy_rates = self._enforce_policies(now)
        cycle = None
        if self.algorithm is not None:
            cycle = self._enforce_algorithm(now, stats)
        if telemetry is not None:
            self._emit_cycle(telemetry, now, stats, cycle, policy_rates, False)

    def _collect(self, now: float) -> Dict[str, AggregateStats]:
        """Collect every local's aggregate; the fabric picks the loop.

        A fabric that defers the collect message answers it later, so
        the per-local sessions run; one that answers in line gets the
        synchronous walk, which skips the session bookkeeping.  With an
        algorithm to feed, what a local may not report is refused
        (:meth:`_vet_replies`) before the cycle freezes its job order, as
        a failed collect would be.  With no local attached there is
        nothing to ask, and no message is built.
        """
        if not self._locals:
            return {}
        missed = self._missed_collects
        # An answer clears its local's misses; a refused one is a miss on
        # top of those it had.
        prior = dict(missed) if missed else None
        config = self.config
        message = CollectAggregate(now, config.algorithm_channel, config.loop_interval)
        if self.fabric.defers(message):
            stats = self._collect_async(now, message)
        else:
            stats = {}
            for endpoint in list(self._locals):
                try:
                    result = self.fabric.call(endpoint, message)
                except RPCError:
                    self._record_miss(endpoint, now)
                    continue
                missed.pop(endpoint, None)
                if result is not None:
                    stats[endpoint] = result
        if stats and self.algorithm is not None:
            self._vet_replies(stats, now, prior)
        return stats

    def _vet_replies(
        self,
        stats: Dict[str, AggregateStats],
        now: float,
        prior: Optional[Dict[str, int]],
    ) -> None:
        """Refuse each reply that reports a job its local does not host,
        reports a job twice, or reports a demand that is not finite and
        >= 0 (a stage window with a negative or infinite count or backlog,
        or ops over a negative window, folds to one): one local sets the
        rates of its own jobs only.

        Ids are checked only when the layout or the reported id tuples
        change (a steady world hands over the same tuples every cycle);
        the demands are checked on the fold's own concatenation, once per
        tick, and only a failure looks for the local at fault.  A job the
        plane no longer knows (finished since the reply was taken) folds
        to nothing and is not refused.  Each refusal is that local's
        collect miss, with one ``control.reply_refused`` event: the reply
        leaves ``stats``, its session's copy is cleared, and the misses
        its answer had cleared are restored first, so a refusal counts
        toward ``max_missed_collects`` like a failed RPC.
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
        for local_id, reason in refused.items():
            del stats[local_id]
            session = self._sessions.get(local_id)
            if session is not None:
                session.stats = None  # refused once, not harvested again
            if prior is not None and local_id in prior:
                self._missed_collects.setdefault(local_id, prior[local_id])
            if self._telemetry is not None:
                self._telemetry.events.emit(
                    "control.reply_refused", now, reason=reason, local=local_id
                )
            self._record_miss(local_id, now)

    def _foreign_ids(self, local_id: str, job_ids: Tuple[str, ...]) -> Optional[str]:
        """Why ``local_id`` may not report ``job_ids``, or None."""
        if self._hosting_version != self._placement_version:
            self._rebuild_hosting()
        hosting = self._hosting_locals
        seen: set = set()
        for job_id in job_ids:
            if job_id in seen:
                return f"job {job_id!r} reported twice"
            seen.add(job_id)
            if job_id in hosting and local_id not in hosting[job_id]:
                return f"job {job_id!r} is not hosted here"
        return None

    def _record_miss(self, endpoint: str, now: float) -> bool:
        """Account one definitive collect miss; True if ``endpoint`` was
        evicted (and must not be re-issued this tick)."""
        self.collect_failures += 1
        misses = self._missed_collects.get(endpoint, 0) + 1
        self._missed_collects[endpoint] = misses
        limit = self.config.max_missed_collects
        if limit is not None and misses >= limit:
            # Presumed dead: evict so the job's share is redistributed
            # instead of reserved for a ghost.
            self.evictions.append((now, endpoint))
            if self._telemetry is not None:
                self._telemetry.events.emit(
                    "control.evict", now, endpoint=endpoint, misses=misses
                )
            self.detach_local(endpoint)
            return True
        return False

    def _collect_async(self, now: float, message) -> Dict[str, AggregateStats]:
        """Session-driven collect: issue/retry/timeout per local.

        One pass over the locals advances each session's state machine
        at this tick boundary: harvest replies that arrived since the
        last tick, expire deadlines into retries (exponential backoff)
        or -- with retries exhausted -- liveness misses, then issue a new
        request to every local that has none in flight.  Every timing
        is a module constant times the loop interval.
        """
        interval = self.config.loop_interval
        deadline = COLLECT_DEADLINE * interval
        stale_ttl = STALE_TTL * interval
        telemetry = self._telemetry
        stats: Dict[str, AggregateStats] = {}
        ages: Dict[str, float] = {}
        for endpoint in list(self._locals):
            session = self._sessions.get(endpoint)
            if session is None:
                session = self._sessions[endpoint] = CollectSession(endpoint)
            # -- expire: endpoint failure or deadline passed ----------------
            miss = False
            if session.failed:
                session.failed = False
                miss = self._handle_expiry(session, now)
            elif (
                session.pending is not None
                and now - session.issued_at >= deadline
            ):
                session.abandon()
                self.collect_timeouts += 1
                if telemetry is not None:
                    telemetry.events.emit(
                        "control.collect_timeout",
                        now,
                        endpoint=endpoint,
                        attempt=session.attempt,
                    )
                miss = self._handle_expiry(session, now)
            if miss:
                continue  # evicted
            # -- harvest ----------------------------------------------------
            if session.stats is not None:
                age = now - session.stats_at
                fresh = age <= interval
                if fresh:
                    self._missed_collects.pop(endpoint, None)
                if fresh or age <= stale_ttl:
                    stats[endpoint] = session.stats
                    ages[endpoint] = age
            # -- issue ------------------------------------------------------
            if session.pending is None and now >= session.next_attempt_at:
                try:
                    session.issue(self.fabric, message, now)
                except (RPCError, StageNotRegistered):
                    self._record_miss(endpoint, now)
        self._stats_age = ages
        return stats

    def _handle_expiry(self, session: CollectSession, now: float) -> bool:
        """Route one expired attempt into retry-with-backoff or a miss;
        True if the endpoint was evicted."""
        if session.attempt <= MAX_COLLECT_RETRIES:
            backoff = RETRY_BACKOFF * self.config.loop_interval
            session.next_attempt_at = now + backoff * (
                RETRY_BACKOFF_FACTOR ** (session.attempt - 1)
            )
            return False
        session.attempt = 0
        session.next_attempt_at = now
        return self._record_miss(session.endpoint, now)

    def _enforce_policies(self, now: float) -> Dict[tuple[str, str], float]:
        # Resolve conflicts: for each (job, channel) keep the highest-priority
        # enabled policy (ties: the one later in the table wins, matching
        # admin intent of "the newest instruction applies"; replace_policy
        # moves a re-set rule to the end).
        if not self._policies:
            return {}
        winners: Dict[tuple[str, str], PolicyRule] = {}
        for rule in self._policies.values():
            if not rule.enabled:
                continue
            for job_id in self._jobs:
                if not rule.scope.applies_to_job(job_id):
                    continue
                key = (job_id, rule.scope.channel_id)
                prev = winners.get(key)
                if prev is None or rule.priority >= prev.priority:
                    winners[key] = rule
        pushed: Dict[tuple[str, str], float] = {}
        for (job_id, channel_id), rule in winners.items():
            rate = max(MIN_RATE, rule.schedule.rate_at(now))
            pushed[(job_id, channel_id)] = rate
            self._push_job(job_id, channel_id, rate, now, rule.burst)
        return pushed

    def _enforce_algorithm(
        self, now: float, stats: Dict[str, AggregateStats]
    ) -> Optional[tuple]:
        """The control cycle: demand -> allocate -> clamp -> log -> deliver.

        Runs over arrays aligned to the frozen job order; the enforcement
        log receives each cycle's ``(now, job_id, rate)`` rows as one
        column block, built into rows when it is read.  The rates leave
        through the ``enforce_array_sink`` when the plane has one, else
        as one batch per hosting local.  Returns the cycle's ``(job_ids,
        demand, reservations, rates)`` -- fresh arrays nothing writes
        again, which a ``control.cycle`` row may hold -- or None when no
        job is registered.
        """
        self._ensure_vector_layout()
        job_ids = self._vec_job_ids
        if not job_ids:
            return None
        demand = self._job_demand_vec(stats)
        rates = self.algorithm.allocate_arrays(
            job_ids, demand, self._reservation_vec()
        )
        rates = np.maximum(MIN_RATE, rates)
        self.enforcement_log.extend_rows(now, job_ids, rates)
        sink = self._enforce_array_sink
        if sink is None:
            self._push_rates(
                dict(zip(job_ids, rates.tolist())), self.config.algorithm_channel, now
            )
        else:
            sink(now, np.maximum(MIN_RATE, rates / self._vec_n_stages))
        return job_ids, demand, self._vec_res_values, rates

    def _emit_cycle(
        self,
        telemetry,
        now: float,
        stats: Dict[str, AggregateStats],
        cycle: Optional[tuple],
        policy_rates: Dict[tuple[str, str], float],
        paused: bool,
    ) -> None:
        """Append one ``control.cycle`` introspection event.

        Records the loop's whole decision surface: the locals' per-job
        demand partials, the algorithm's inputs, the computed (clamped)
        rates, and each rate's delta against the previous cycle.  The
        record is a :class:`CycleEvent` row of those inputs, rendered
        when read; the row holds the previous cycle's rates to render the
        deltas.  Runs only with telemetry attached; the tel-only
        ``_prev_rates`` state never feeds back into enforcement arithmetic.
        """
        policy = None
        if policy_rates:
            policy = []
            for (job_id, channel_id), rate in policy_rates.items():
                policy += (job_id, channel_id, rate)
            policy = tuple(policy)
        # What the collect saw: ``(local_id, AggregateStats, ...)`` flat,
        # or None.  A ``demand`` that is an array is copied: the sharded
        # coordinator's is a slice view of the epoch's demand vector, and
        # a row holds its own values, not a view its owner reuses.
        observed = []
        for local_id, agg in stats.items():
            if not isinstance(agg, AggregateStats):
                continue
            if isinstance(agg.demand, np.ndarray):
                agg = agg._replace(demand=agg.demand.copy())
            observed += (local_id, agg)
        algorithm = self.algorithm
        prev_cycle, prev_policy = self._prev_rates
        telemetry.events.append(
            CycleEvent(
                now, self.loop_iterations, paused, tuple(observed) if observed else None,
                type(algorithm).__name__ if algorithm else None,
                cycle, policy, prev_cycle, prev_policy,
            )
        )
        self._prev_rates = (cycle, policy)

    def _fold_index(self, job_id_lists: Tuple[Tuple[str, ...], ...]):
        """``(idx, sel)``: the plane-order index of the concatenated
        partials, or of ``partials[sel]`` when some reported jobs have
        finished since (``sel`` masks them out); cached on the layout and
        the locals' job id tuples (a local hands the same tuple over
        every cycle until its registrations change)."""
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
        job's sum is the locals' partials added in stats order; a fresh
        single partial is taken as it is, bit for bit.
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

    def _push_job(
        self,
        job_id: str,
        channel_id: str,
        rate: float,
        now: float,
        burst: Optional[float] = None,
    ) -> None:
        """A policy push (or a pause): one job's rate as a batch of one,
        sent to each of its hosting locals."""
        job = self._jobs.get(job_id)
        if job is None:
            return
        n_stages = len(job.stage_ids)
        per_stage = max(MIN_RATE, rate / n_stages)
        per_burst = None if burst is None else max(burst / n_stages, per_stage)
        message = EnforceJobRateBatch(channel_id, now, ((job_id, per_stage, per_burst),))
        if self._hosting_version != self._placement_version:
            self._rebuild_hosting()
        for local_id in self._hosting_locals[job_id]:
            try:
                self.fabric.call(local_id, message)
            except RPCError:
                # A lost push: the fabric counts and names it (``dropped``,
                # ``rpc.drop``); it is not a collect failure.
                pass

    def _push_rates(self, rates: Dict[str, float], channel_id: str, now: float) -> None:
        """Fan one cycle's job-level rates out as one batch per hosting
        local.

        Each rate is split once, here, from the job's *total* stage
        count (as :meth:`_push_job` splits a policy's), so locals receive
        a final per-stage rate and no float is re-associated.  A job
        spanning R locals costs R batch *entries*, not R messages; within
        each batch the entries keep ``rates`` order (allocation order).
        """
        if self._hosting_version != self._placement_version:
            self._rebuild_hosting()
        hosting = self._hosting_locals
        jobs = self._jobs
        batches: Dict[str, List[Tuple[str, float, None]]] = {}
        for job_id, rate in rates.items():
            entry = (job_id, max(MIN_RATE, rate / len(jobs[job_id].stage_ids)), None)
            for local_id in hosting[job_id]:
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
                pass  # a lost push, as in _push_job
