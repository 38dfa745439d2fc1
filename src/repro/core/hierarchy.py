"""Local controllers: the endpoints of the one control plane.

The plane (:class:`~repro.core.controller.ControlPlane`) never talks to a
stage.  A **local controller** registers stages, collects their window
statistics and folds them into per-job demand partials, and fans a
pushed job-level rate out to its stages; the plane talks to O(locals)
endpoints, two requests per local per tick.  Who owns a local:

* the plane itself, for a stage registered in process
  (``ControlPlane.register`` / ``register_endpoint``): one
  :class:`LocalController` per job, created with the job's first stage
  and detached after its last one leaves;
* a caller, for stages it places itself (``attach_local`` +
  ``register_stage``): a replay world's racks, a ``stage-host`` process
  whose local answers over the wire, the sharded coordinator's rack
  functions.

A local's reply is one :class:`AggregateStats`; a local may report only
jobs it hosts, each once, with a finite demand >= 0, and any other reply
is refused by the plane as that local's collect miss.  A stage whose
collect raises :class:`~repro.errors.RPCError` makes its local's whole
collect a miss (the exception leaves the local's handler); a lost rate
push to one stage is skipped, and the batch goes on to the rest.

Equivalence: on a fault-free fabric, the plane's per-job locals and
racks that host whole jobs (``placement="job"``) give bit-identical
enforcement logs -- a job's demand is folded in one local either way,
and the per-stage split ``max(MIN_RATE, rate / n_stages)`` is computed
once at the plane, so no float is re-associated
(``tests/core/test_hierarchy.py`` checks this as a property).  The plane
keeps one local per *job*, not per stage: a job's stages fold into one
running sum, ``(acc + offered) + drain`` stage by stage, where a local per
stage would hand the plane ``offered + drain`` already added -- a
different float, and different golden digests.

Split-job placement / demand-merge protocol
-------------------------------------------
Jobs are *not* required to live on one local.  When a job's stages span
several locals, each local reports a **partial** per-job demand (folded
over just its hosted stages), and the plane merges the partials: ``sum
over locals of partial * staleness_discount``, where the discount ``0.5
** (age / halflife)`` (a half-life of ``STALE_HALFLIFE`` loop intervals)
is per-*local* -- one slow rack dims only its own contribution to a
spanning job, not its rack-mates'.  Enforcement fans back out with the
per-stage split computed **once** at the plane from the job's *total*
stage count, then pushed to every hosting local exactly once.  There is
one enforcement verb toward a local, :class:`EnforceJobRateBatch`: the
algorithm's cycle sends one batch per hosting local with the entries in
allocation order, so a cycle costs O(locals) messages; a policy push is
a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import ConfigError, RPCError, StageNotRegistered
from repro.core.rpc import CollectStats, EnforceRate, Ping, RpcMessage
from repro.core.stage import DataPlaneStage, StageIdentity

__all__ = [
    "CollectAggregate",
    "AggregateStats",
    "EnforceJobRateBatch",
    "LocalController",
    "PLACEMENTS",
    "check_placement",
    "rack_index",
]

#: How a world spreads stages over racks: ``"job"`` pins each job to one
#: rack, ``"split"`` spreads a job's stages across racks.
PLACEMENTS = ("job", "split")

_NAN = float("nan")
#: ``tuple.__new__``: builds a reply from its fields in C, without the
#: named tuple's Python-level constructor frame.
_new_record = tuple.__new__


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

    A :class:`LocalController` fills them with tuples (the id and count
    tuples are the same objects until its registrations change); the
    sharded coordinator hands ``demand`` over as a float64 slice of the
    vector it already holds.  The plane keys replies by endpoint, so the
    record names no local and no time.
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
    """Per-job, per-node or per-rack aggregator between the plane and its
    stages.

    Handles three verbs: :class:`CollectAggregate` (collect every local
    stage's window and fold it into its job's demand partial),
    :class:`EnforceJobRateBatch` (set each entry's per-stage rate on that
    job's local stages) and :class:`Ping`.  A stage object registered
    here (:meth:`register`) is called directly, ``collect(now)`` and
    ``set_channel_rate``; a stage known only by its RPC handler
    (:meth:`register_endpoint`, e.g. a remote stage) is sent one
    ``CollectStats`` / ``EnforceRate`` per verb, built once per local or
    job -- what :class:`~repro.core.rpc.StageEndpoint` does on receipt.
    """

    def __init__(self, local_id: str) -> None:
        if not local_id:
            raise ConfigError("local controller needs an id")
        self.local_id = local_id
        #: stage_id -> its job id, in registration order.
        self._stage_job: Dict[str, str] = {}
        #: job_id -> {stage_id: (RPC handler, stage object or None)}, in
        #: registration order.
        self._jobs: Dict[str, Dict[str, tuple]] = {}
        #: ``(job_ids, stage_counts)`` of a reply, until registration changes.
        self._layout: Optional[tuple] = None

    # -- local registry ----------------------------------------------------
    @property
    def stage_ids(self) -> List[str]:
        return list(self._stage_job)

    def register(self, stage: DataPlaneStage) -> None:
        """Host an in-process stage object."""
        self._add(stage.identity, None, stage)

    def register_endpoint(
        self, identity: StageIdentity, handler: Callable[[RpcMessage], Any]
    ) -> None:
        """Host a stage reached through its RPC handler."""
        self._add(identity, handler, None)

    def _add(self, identity: StageIdentity, handler, stage) -> None:
        stage_id = identity.stage_id
        if stage_id in self._stage_job:
            raise ConfigError(
                f"stage {stage_id!r} already registered with local "
                f"{self.local_id!r}"
            )
        self._stage_job[stage_id] = identity.job_id
        self._jobs.setdefault(identity.job_id, {})[stage_id] = (handler, stage)
        self._layout = None

    def deregister(self, stage_id: str) -> None:
        job_id = self._stage_job.pop(stage_id, None)
        if job_id is None:
            raise StageNotRegistered(
                f"stage {stage_id!r} not registered with local {self.local_id!r}"
            )
        stages = self._jobs[job_id]
        del stages[stage_id]
        if not stages:
            del self._jobs[job_id]
        self._layout = None

    # -- RPC surface -------------------------------------------------------
    def handle(self, message: RpcMessage) -> Any:
        """The local's one dispatch; the two per-tick verbs run here, in
        this frame."""
        if isinstance(message, CollectAggregate):
            # Demand = offered rate over the window plus the backlog's
            # drain desire (backlog / loop interval): a job with queued
            # work wants at least enough rate to clear it within one loop
            # period.  A window of 0 (a stage collected at the instant it
            # started) counts its ops over one loop period; ops over a
            # negative or NaN window are no rate at all and fold to NaN,
            # which, like a negative or infinite count, the plane refuses.
            # The golden digests depend on this float expression bit for
            # bit.
            now = message.now
            channel = message.channel
            loop_interval = message.loop_interval
            collect = None
            demand = []
            for stages in self._jobs.values():
                acc = 0.0
                for handler, stage in stages.values():
                    if stage is not None:
                        _, window, channels = stage.collect(now)
                    else:
                        if collect is None:
                            collect = CollectStats(now)
                        st = handler(collect)
                        if st is None:
                            continue
                        _, window, channels = st
                    for channel_id, _, enqueued, backlog, _ in channels:
                        if channel_id == channel:
                            break
                    else:
                        continue
                    if window > 0:
                        offered = enqueued / window
                    elif window == 0 or not enqueued:
                        offered = enqueued / loop_interval
                    else:
                        offered = _NAN
                    acc = acc + offered + backlog / loop_interval
                demand.append(acc)
            layout = self._layout
            if layout is None:
                jobs = self._jobs
                layout = self._layout = (
                    tuple(jobs), tuple([len(stages) for stages in jobs.values()])
                )
            return _new_record(AggregateStats, (layout[0], tuple(demand), layout[1]))
        if isinstance(message, EnforceJobRateBatch):
            jobs = self._jobs
            channel_id = message.channel_id
            now = message.now
            for job_id, rate, burst in message.entries:
                stages = jobs.get(job_id)
                if stages is None:
                    continue
                enforce = None
                for handler, stage in stages.values():
                    try:
                        if stage is not None:
                            stage.set_channel_rate(channel_id, rate, now, burst)
                            continue
                        if enforce is None:
                            enforce = EnforceRate(channel_id, rate, now, burst)
                        handler(enforce)
                    except RPCError:
                        # A lost push to one (remote) stage: it rides its
                        # orphan policy; the rest of the batch still lands.
                        continue
                    except ConfigError:
                        # The stage has no such channel: the rule does not
                        # apply to it.
                        continue
            return True
        if isinstance(message, Ping):
            return message.payload
        raise RPCError(
            f"local {self.local_id!r}: unhandled message type "
            f"{type(message).__name__}"
        )
