"""The PADLL control plane.

A logically centralised component with global visibility: stages register
as they start (reporting job id, host, pid), the control plane groups
stages by job and runs a feedback loop that

1. **collects** window statistics from every stage over RPC,
2. **verifies** the installed policies against the current time/state, and
3. **enforces** new rates -- from explicit policy rules and/or from a
   cluster-wide allocation algorithm (static, priority, proportional
   sharing, DRF).

Stages of the same job are orchestrated as one entity: a job-level rate is
split equally across the job's stages (matching the paper's description of
distributed jobs with one stage per application instance).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError, PolicyError, RPCError, StageNotRegistered
from repro.core.algorithms import AllocationAlgorithm, MIN_RATE
from repro.core.fabric import FaultyFabric
from repro.core.policies import PolicyRule
from repro.core.ringlog import RingLog
from repro.core.rpc import (
    CollectStats,
    EnforceRate,
    StageEndpoint,
)
from repro.core.session import CollectSession
from repro.core.stage import DataPlaneStage, StageIdentity, StageStats
from repro.telemetry.events import RowEvent

__all__ = [
    "JobInfo", "ControlPlaneConfig", "fold_stage_demand", "CycleEvent", "ControlPlane",
]

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


def fold_stage_demand(
    per_job: Dict[str, float],
    st: StageStats,
    channel: str,
    loop_interval: float,
    discount: Optional[float] = None,
) -> None:
    """Add one stage's window to its job's entry in ``per_job``.

    Demand = offered rate over the window plus the backlog's drain
    desire (backlog / loop interval): a job with queued work wants at
    least enough rate to clear it within one loop period.  Every tier
    that folds stage windows -- the flat plane, a local controller --
    calls this, so their partial sums agree bit for bit.

    A window of 0 (a stage collected at the instant it started) counts
    its ops over one loop period.  Ops over a negative or NaN window are
    no rate at all and fold to NaN; like a negative or infinite count,
    that leaves the sum not finite and >= 0, which the plane refuses
    (``ControlPlane._vet_replies``, ``HierarchicalControlPlane._vet_replies``).
    """
    for snap in st.channels:
        if snap.channel_id == channel:
            break
    else:
        return
    window = st.window
    if window > 0:
        offered = snap.enqueued_ops / window
    elif window == 0 or not snap.enqueued_ops:
        offered = snap.enqueued_ops / loop_interval
    else:
        offered = np.nan
    drain = snap.backlog / loop_interval
    acc = per_job.get(st.job_id, 0.0)
    if discount is not None:
        per_job[st.job_id] = acc + (offered + drain) * discount
    else:
        # Golden digests depend on this float expression bit for bit.
        per_job[st.job_id] = acc + offered + drain


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

    ``observed`` is the plane's :meth:`~ControlPlane._cycle_view` of its
    collect.  ``cycle`` is the algorithm's ``(job_ids, demand,
    reservations, rates)``, with ``demand`` and ``reservations`` None on a
    health-paused cycle (every job at ``MIN_RATE``), and None when the
    algorithm did not run.  ``policy`` is the policy pushes as flat
    ``(job, channel, rate, ...)`` triples, None when there were none.
    ``prev_cycle`` / ``prev_policy`` are the previous row's, which the
    deltas are rendered against.
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

    @staticmethod
    def observed_fields(observed: Optional[tuple]) -> Dict[str, object]:
        """Per stage and channel, demand/throughput/backlog/limit."""
        view: Dict[str, Dict[str, Dict[str, float]]] = {}
        if observed is not None:
            it = iter(observed)
            for stage_id, st in zip(it, it):
                view[stage_id] = {
                    snap.channel_id: {
                        "enqueued_rate": st.demand_rate(snap.channel_id),
                        "granted_rate": st.granted_rate(snap.channel_id),
                        "backlog": snap.backlog,
                        "rate_limit": snap.rate_limit,
                    }
                    for snap in st.channels
                }
        return {"observed": view}

    def render(self) -> Dict[str, object]:
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
            **self.observed_fields(self.observed),
            "demand": demand,
            "reservations": reservations,
            "algorithm": self.algorithm,
            "rates": rates,
            "policy_rates": policy_rates,
            "deltas": deltas,
        }


class ControlPlane:
    """Global coordinator of all data-plane stages."""

    def __init__(
        self,
        fabric: Optional[FaultyFabric] = None,
        config: Optional[ControlPlaneConfig] = None,
        algorithm: Optional[AllocationAlgorithm] = None,
        telemetry=None,
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
        #: Stages evicted by the liveness check: (time, stage_id).
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
        self._vec_res: Optional[np.ndarray] = None
        self._vec_res_values: Tuple[float, ...] = ()
        self._vec_res_dirty = True
        #: ``(stats, demand)`` of the last vetted collect, taken by the
        #: next :meth:`_job_demand_vec` of those same stats.
        self._folded: Optional[tuple] = None

    # -- registration -------------------------------------------------------
    def register(
        self, stage: DataPlaneStage, now: float = 0.0
    ) -> None:
        """Register a local stage object (binds an endpoint on the fabric)."""
        self.register_endpoint(stage.identity, StageEndpoint(stage).handle, now)

    def register_endpoint(
        self,
        identity: StageIdentity,
        handler: Callable[..., object],
        now: float = 0.0,
    ) -> None:
        """Register a stage by identity + RPC handler (remote form)."""
        if identity.stage_id in self._stages:
            raise ConfigError(f"stage {identity.stage_id!r} already registered")
        self.fabric.bind(identity.stage_id, handler)
        self._record_stage(identity, now)

    def deregister(self, stage_id: str) -> None:
        """Remove a stage (job teardown); removes the job when empty."""
        self._forget_stage(stage_id)
        self._drop_endpoint(stage_id)

    def _record_stage(self, identity: StageIdentity, now: float) -> None:
        """Enter a stage into the stage and job tables."""
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
        self._placement_version += 1

    def _forget_stage(self, stage_id: str) -> StageIdentity:
        """Undo :meth:`_record_stage`; the job goes with its last stage."""
        identity = self._stages.pop(stage_id, None)
        if identity is None:
            raise StageNotRegistered(f"stage {stage_id!r} not registered")
        job = self._jobs[identity.job_id]
        job.stage_ids.remove(stage_id)
        if not job.stage_ids:
            del self._jobs[identity.job_id]
        self._placement_version += 1
        return identity

    def _drop_endpoint(self, endpoint: str) -> None:
        """Unbind a collect endpoint; drop its misses and session."""
        self.fabric.unbind(endpoint)
        self._missed_collects.pop(endpoint, None)
        session = self._sessions.pop(endpoint, None)
        if session is not None:
            session.abandon()

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
        self._vec_job_ids = tuple(self._jobs)
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
                self._push_job_rate(
                    job_id, self.config.algorithm_channel,
                    MIN_RATE, now,
                )
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

    def _collect(self, now: float) -> Dict[str, StageStats]:
        """Collect every endpoint's window; the fabric picks the loop.

        A fabric that defers the collect message answers it later, so
        the per-endpoint sessions run; one that answers in line gets the
        synchronous walk, which skips the session bookkeeping.  With an
        algorithm to feed, what an endpoint may not report is refused
        (:meth:`_vet_replies`) before the cycle freezes its job order, as
        a failed collect would be.
        """
        missed = self._missed_collects
        # An answer clears its endpoint's misses; a refused one is a miss
        # on top of those it had.
        prior = dict(missed) if missed else None
        message = self._collect_message(now)
        if self.fabric.defers(message):
            stats = self._collect_async(now, message)
        else:
            stats = {}
            for endpoint in self._collect_endpoints():
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
        stats: Dict[str, StageStats],
        now: float,
        prior: Optional[Dict[str, int]],
    ) -> None:
        """Refuse each stage window that folds to a demand not finite and
        >= 0 (a negative or infinite count or backlog, ops over a negative
        window: :func:`fold_stage_demand`), so one stage cannot move the
        rates of jobs it does not run.

        The folded demand vector is tested once per tick and handed to
        the cycle; only a failure folds the windows one by one to find
        the stages at fault.  A window whose value is wrong but finite and
        >= 0 moves only its own job, as any report of its own load can.
        """
        self._ensure_vector_layout()
        demand = self._job_demand_vec(stats)
        if not demand.size or (demand.min() >= 0.0 and demand.max() < np.inf):
            self._folded = (stats, demand)
            return
        channel = self.config.algorithm_channel
        loop_interval = self.config.loop_interval
        refused: Dict[str, str] = {}
        for stage_id, st in stats.items():
            alone: Dict[str, float] = {}
            fold_stage_demand(alone, st, channel, loop_interval)
            if not 0.0 <= alone.get(st.job_id, 0.0) < np.inf:
                refused[stage_id] = "a window not finite and >= 0"
        self._refuse(stats, refused, now, prior)

    #: The ``control.reply_refused`` field that names the endpoint.
    _endpoint_field = "stage"

    def _refuse(
        self,
        stats: Dict[str, object],
        refused: Dict[str, str],
        now: float,
        prior: Optional[Dict[str, int]],
    ) -> None:
        """Turn each refused reply (endpoint -> reason) into that
        endpoint's collect miss, with one ``control.reply_refused`` event:
        the reply leaves ``stats``, its session's copy is cleared, and
        the misses its answer had cleared are restored first, so a
        refusal counts toward ``max_missed_collects`` like a failed RPC."""
        for endpoint, reason in refused.items():
            del stats[endpoint]
            session = self._sessions.get(endpoint)
            if session is not None:
                session.stats = None  # refused once, not harvested again
            if prior is not None and endpoint in prior:
                self._missed_collects.setdefault(endpoint, prior[endpoint])
            if self._telemetry is not None:
                self._telemetry.events.emit(
                    "control.reply_refused",
                    now,
                    reason=reason,
                    **{self._endpoint_field: endpoint},
                )
            self._record_miss(endpoint, now)

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
            self._evict(endpoint)
            return True
        return False

    def _evict(self, endpoint: str) -> None:
        """Deregister a liveness-evicted endpoint (hierarchy overrides)."""
        self.deregister(endpoint)

    def _collect_endpoints(self) -> List[str]:
        """Addresses a collect polls (stages, by default)."""
        return list(self._stages)

    def _collect_message(self, now: float):
        """The request a collect sends each endpoint (hierarchy overrides)."""
        return CollectStats(now)

    def _collect_async(self, now: float, message) -> Dict[str, StageStats]:
        """Session-driven collect: issue/retry/timeout per endpoint.

        One pass over the endpoints advances each session's state machine
        at this tick boundary: harvest replies that arrived since the
        last tick, expire deadlines into retries (exponential backoff)
        or -- with retries exhausted -- liveness misses, then issue a new
        request to every endpoint that has none in flight.  Every timing
        is a module constant times the loop interval.
        """
        interval = self.config.loop_interval
        deadline = COLLECT_DEADLINE * interval
        stale_ttl = STALE_TTL * interval
        telemetry = self._telemetry
        stats: Dict[str, StageStats] = {}
        ages: Dict[str, float] = {}
        for endpoint in self._collect_endpoints():
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
            self._push_job_rate(job_id, channel_id, rate, now, rule.burst)
        return pushed

    def _enforce_algorithm(
        self, now: float, stats: Dict[str, StageStats]
    ) -> Optional[tuple]:
        """The control cycle: demand -> allocate -> clamp -> log -> deliver.

        Runs over arrays aligned to the frozen job order; the enforcement
        log receives each cycle's ``(now, job_id, rate)`` rows as one
        column block, built into rows when it is read.  Returns the
        cycle's ``(job_ids, demand, reservations, rates)`` -- fresh arrays
        nothing writes again, which a ``control.cycle`` row may hold --
        or None when no job is registered.
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
        self._deliver_rates(now, rates)
        return job_ids, demand, self._vec_res_values, rates

    #: The ``control.cycle`` record this plane appends.
    _cycle_event = CycleEvent

    def _emit_cycle(
        self,
        telemetry,
        now: float,
        stats: Dict[str, StageStats],
        cycle: Optional[tuple],
        policy_rates: Dict[tuple[str, str], float],
        paused: bool,
    ) -> None:
        """Append one ``control.cycle`` introspection event.

        Records the loop's whole decision surface: observed per-channel
        demand/throughput/backlog, the algorithm's inputs, the computed
        (clamped) rates, and each rate's delta against the previous cycle.
        The record is a :class:`CycleEvent` row of those inputs, rendered
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
        algorithm = self.algorithm
        prev_cycle, prev_policy = self._prev_rates
        telemetry.events.append(
            self._cycle_event(
                now, self.loop_iterations, paused, self._cycle_view(stats),
                type(algorithm).__name__ if algorithm else None,
                cycle, policy, prev_cycle, prev_policy,
            )
        )
        self._prev_rates = (cycle, policy)

    def _cycle_view(self, stats: Dict[str, StageStats]) -> Optional[tuple]:
        """What this plane's collect saw, as a row's ``observed`` value:
        ``(stage_id, StageStats, ...)`` flat, or None when empty (the
        records are immutable, so the row holds the replies themselves)."""
        if not stats:
            return None
        view = []
        for pair in stats.items():
            view += pair
        return tuple(view)

    def _job_demand_vec(self, stats: Dict[str, StageStats]) -> np.ndarray:
        """Per-job demand in the frozen job order: every stage window
        folded into its job's entry (:func:`fold_stage_demand`).

        Session collects stamp each entry with its *age*; a stale entry's
        demand is discounted by ``0.5 ** (age / halflife)`` (the half-life
        is ``STALE_HALFLIFE`` loop intervals) so decisions lean on old
        observations progressively less.  Fresh (age-zero) entries take
        the exact undiscounted accumulation path, bit for bit.  The
        collect's vetting folds first and hands its vector over.
        """
        folded = self._folded
        if folded is not None:
            self._folded = None
            if folded[0] is stats:
                return folded[1]
        channel = self.config.algorithm_channel
        loop_interval = self.config.loop_interval
        halflife = STALE_HALFLIFE * loop_interval
        ages = self._stats_age
        per_job_demand: Dict[str, float] = {}
        for stage_id, st in stats.items():
            discount = None
            if ages:
                age = ages.get(stage_id, 0.0)
                if age > 0.0:
                    discount = 0.5 ** (age / halflife)
            fold_stage_demand(per_job_demand, st, channel, loop_interval, discount)
        get = per_job_demand.get
        return np.array([get(job_id, 0.0) for job_id in self._vec_job_ids])

    def _push_job_rate(
        self,
        job_id: str,
        channel_id: str,
        rate: float,
        now: float,
        burst: Optional[float] = None,
    ) -> None:
        """Split a job-level rate equally across the job's stages and push
        one :class:`EnforceRate` per stage (hierarchy overrides)."""
        job = self._jobs.get(job_id)
        if job is None or not job.stage_ids:
            return
        stage_ids = job.stage_ids
        n_stages = len(stage_ids)  # ``job.n_stages``, without its frame
        per_stage = max(MIN_RATE, rate / n_stages)
        per_burst = None if burst is None else max(burst / n_stages, per_stage)
        message = EnforceRate(channel_id, per_stage, now, per_burst)
        for stage_id in stage_ids:
            try:
                self.fabric.call(stage_id, message)
            except RPCError:
                # A lost push: the fabric counts and names it (``dropped``,
                # ``rpc.drop``); it is not a collect failure.
                continue
            except ConfigError:
                # The stage has no such channel: the rule does not apply to
                # it (e.g. a data-only stage receiving a metadata rule).
                continue

    def _push_rates(self, rates: Dict[str, float], channel_id: str, now: float) -> None:
        """Fan one cycle's job-level rates out, in ``rates`` order
        (hierarchy overrides: one batch per hosting local)."""
        for job_id, rate in rates.items():
            self._push_job_rate(job_id, channel_id, rate, now)

    def _deliver_rates(self, now: float, rates: np.ndarray) -> None:
        """Deliver one cycle's clamped rates, aligned to the frozen job
        order (hierarchy overrides: an array sink, when it has one)."""
        self._push_rates(
            dict(zip(self._vec_job_ids, rates.tolist())),
            self.config.algorithm_channel,
            now,
        )
