"""Epoch-barrier coordinator: shard pool under the real control plane.

:class:`ShardedSimulation` stitches the two halves together.  The data
plane is a :class:`~repro.simulation.sharded.pool.ShardPool` of fluid
racks; the control plane is the genuine
:class:`~repro.core.controller.ControlPlane` with one local
per rack, each an address bound to the coordinator's rack handler.  One
*epoch* is one control loop interval:

1. every shard's rack block advances ``loop_interval / DT`` fluid
   ticks, in shard order in this process, and reports per-job demand
   partials as one float64 vector over the pool's slots, one slot per
   ``(rack, job)`` (the barrier);
2. the coordinator runs one ``cp.tick``: the rack handler answers the
   plane's collects with an :class:`~repro.core.hierarchy.AggregateStats`
   whose demand is the rack's slice of that vector, and the plane's own
   demand merge, staleness handling, policies and allocator write the
   new per-stage rates straight into the rack blocks' slot arrays
   (:meth:`~repro.simulation.sharded.fluid.FluidBlock.set_rates`) --
   the algorithm's through the plane's ``enforce_array_sink``, policy
   and pause pushes through the batched enforce verb, the later write
   to a slot winning;
3. each block gathers the pushed rates per stage at the start of the
   *next* epoch (enforcement latency of one epoch, matching a real
   deployment where the push RPC lands after the current window).

The per-cycle path builds no per-job Python object (DRF's search runs
over Python lists inside its ``allocate_arrays``).

With *split-job* placement (``placement="split"``), every multi-stage
job spans racks (:func:`~repro.core.hierarchy.rack_index`), so the
global tier is always merging partial demands.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import partial
from json.encoder import encode_basestring_ascii
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import ConfigError, RPCError
from repro.core.hierarchy import (
    AggregateStats,
    CollectAggregate,
    EnforceJobRateBatch,
    check_placement,
    rack_index,
)
from repro.core.controller import ControlPlane
from repro.core.rpc import RpcMessage
from repro.core.stage import StageIdentity
from repro.simulation.sharded.fluid import FluidBlock, FluidConfig, RackSpec
from repro.simulation.sharded.pool import ShardPool
from repro.simulation.ticker import DT

__all__ = ["ShardedConfig", "ShardedResult", "ShardedSimulation"]

#: Enforcement-log rows the digest encodes at a time.
_LOG_CHUNK = 4096


@dataclass(frozen=True, slots=True)
class ShardedConfig:
    """Cluster topology + workload for one sharded run."""

    n_racks: int = 4
    n_shards: int = 1
    n_jobs: int = 8
    stages_per_job: int = 4
    #: "split" spreads each job's stages across racks; "job" pins whole
    #: jobs to one rack (the pre-existing placement).
    placement: str = "split"
    #: Control epoch length (seconds); a whole number of fluid ticks.
    loop_interval: float = 1.0
    fluid: FluidConfig = field(default_factory=FluidConfig)

    def __post_init__(self) -> None:
        if self.n_racks < 1:
            raise ConfigError(f"n_racks must be >= 1, got {self.n_racks}")
        if not 1 <= self.n_shards <= self.n_racks:
            raise ConfigError(
                f"n_shards must be in [1, n_racks], got {self.n_shards} "
                f"for {self.n_racks} racks"
            )
        if self.n_jobs < 1:
            raise ConfigError(f"n_jobs must be >= 1, got {self.n_jobs}")
        if self.stages_per_job < 1:
            raise ConfigError(
                f"stages_per_job must be >= 1, got {self.stages_per_job}"
            )
        check_placement(self.placement)
        ticks = self.loop_interval / DT
        if self.loop_interval <= 0 or abs(ticks - round(ticks)) > 1e-9:
            raise ConfigError(
                "loop_interval must be a positive multiple of the fluid tick, "
                f"got {self.loop_interval} with DT={DT}"
            )

    @property
    def n_stages(self) -> int:
        return self.n_jobs * self.stages_per_job

    @property
    def n_clients(self) -> int:
        return self.n_stages * self.fluid.clients_per_stage


@dataclass(frozen=True)
class ShardedResult:
    """Per-rack and aggregate outputs of one sharded run.

    It holds no reference to the simulation that made it.
    ``enforcement_log`` is the plane's ring log as :meth:`finish` found
    it: only the newest ``history_limit`` rows
    (:class:`~repro.core.controller.ControlPlaneConfig`, 65 536 by
    default) of a longer run, and :meth:`digest` covers those rows only.
    """

    config: ShardedConfig
    #: rack_id -> ops served per tick by the rack MDS.
    rack_served: Dict[str, np.ndarray]
    #: Cluster-wide ops served per tick (rack-order sum).
    aggregate_served: np.ndarray
    #: job_id -> total granted (admitted) ops, global job order.
    job_granted: Dict[str, float]
    #: (now, job_id, rate) entries from the control plane.
    enforcement_log: Tuple[Tuple[float, str, float], ...]
    delivered_ops: float
    final_backlog: float

    def digest(self) -> str:
        """SHA-256 over every output float, bit-for-bit.

        The invariance tests assert this digest is identical across
        shard counts.  The enforcement log is hashed as the bytes of its
        ``json.dumps``, encoded a chunk of rows at a time.
        """
        digest = hashlib.sha256()
        for rack_id in self.rack_served:
            digest.update(rack_id.encode())
            digest.update(
                np.ascontiguousarray(
                    self.rack_served[rack_id], dtype=np.float64
                ).tobytes()
            )
        digest.update(
            np.ascontiguousarray(self.aggregate_served, dtype=np.float64).tobytes()
        )
        digest.update(
            json.dumps(
                {job: value.hex() for job, value in self.job_granted.items()},
                sort_keys=True,
            ).encode()
        )
        # The bytes of ``json.dumps`` of the log's ``[now.hex(), job,
        # rate.hex()]`` rows, fed a chunk of rows at a time: a full copy
        # costs ~17 MiB at 50 000 rows.
        log = self.enforcement_log
        digest.update(b"[")
        for first in range(0, len(log), _LOG_CHUNK):
            rows = ", ".join([
                f'["{now.hex()}", {encode_basestring_ascii(job)}, "{rate.hex()}"]'
                for now, job, rate in log[first : first + _LOG_CHUNK]
            ])
            digest.update((", " + rows if first else rows).encode())
        digest.update(b"]")
        digest.update(self.delivered_ops.hex().encode())
        digest.update(self.final_backlog.hex().encode())
        return digest.hexdigest()


class ShardedSimulation:
    """Drive a sharded fluid cluster under the control plane, one local per rack.

    ``epoch_hook(control_plane, now)`` (optional) runs right before each
    ``cp.tick`` -- the fig4-style experiments use it to step the
    allocator's capacity on schedule.

    :meth:`run` once, then :meth:`finish` (which closes it) once; a
    second run, or a finish before the run or after :meth:`close`, is a
    :class:`ConfigError`.  Closing (by :meth:`close`, :meth:`finish` or
    the ``with`` block) releases the plane and the rack blocks.
    """

    def __init__(
        self,
        config: ShardedConfig,
        algorithm=None,
        telemetry=None,
        epoch_hook: Optional[Callable[[ControlPlane, float], None]] = None,
    ) -> None:
        self.config = config
        self._epoch_hook = epoch_hook
        #: "new" -> "ran" -> "closed" (by finish or close).
        self._state = "new"
        self._telemetry = telemetry

        # Global registration order: jobs outer, stages inner -- the same
        # order a single engine would register them in, independent of
        # rack placement and sharding.  One id string per rack and per
        # stage, shared by the rack specs and the plane's registry.
        rack_ids = [f"rack{r}" for r in range(config.n_racks)]
        rack_stages: List[List[Tuple[str, str]]] = [
            [] for _ in range(config.n_racks)
        ]
        registrations: List[Tuple[StageIdentity, str]] = []
        for j in range(config.n_jobs):
            job_id = f"job{j}"
            for s in range(config.stages_per_job):
                rack = rack_index(config.placement, j, s, config.n_racks)
                stage_id = f"{job_id}-s{s}"
                rack_stages[rack].append((stage_id, job_id))
                registrations.append(
                    (StageIdentity(stage_id, job_id), rack_ids[rack])
                )
        specs = [
            RackSpec(rack_id=rack_ids[r], index=r, stages=tuple(stages))
            for r, stages in enumerate(rack_stages)
        ]
        # Contiguous block partition of racks into shards: shard s gets
        # racks [s*q + min(s, r), ...) -- blocking never affects per-rack
        # math, only which array set a rack's stages live in.
        q, r = divmod(config.n_racks, config.n_shards)
        blocks: List[List[RackSpec]] = []
        start = 0
        for s in range(config.n_shards):
            size = q + (1 if s < r else 0)
            blocks.append(specs[start : start + size])
            start += size
        self._pool = ShardPool(blocks, config.fluid)
        #: Per-slot demand partials of the latest barrier.
        self._demand = np.zeros(self._pool.n_slots)
        # The array sink's scatter map, rebuilt when placement changes:
        # per block, its slots and their jobs' positions in the plane's
        # vector job order.
        self._sink_version = -1
        self._sink: List[Tuple[FluidBlock, np.ndarray, np.ndarray]] = []
        # What this cycle's pushes wrote, for the ``shard.epoch`` event.
        self._sink_ran = False
        self._batch_slots: Set[int] = set()

        self.control_plane = ControlPlane(
            algorithm=algorithm,
            telemetry=telemetry,
            enforce_array_sink=self._enforce_array_sink,
        )
        for rack_id in self._pool.racks:
            self.control_plane.attach_local(rack_id, partial(self._rack, rack_id))
        for identity, rack_id in registrations:
            self.control_plane.register_stage(identity, rack_id)

    def _rack(self, rack_id: str, message: RpcMessage):
        """One rack's handler: a collect is its slice of the barrier's
        demand vector, a batch lands in its block's slot arrays."""
        if isinstance(message, CollectAggregate):
            rack = self._pool.racks[rack_id]
            return AggregateStats(
                rack.job_ids, self._demand[rack.slots], rack.stage_counts
            )
        if not isinstance(message, EnforceJobRateBatch):
            raise RPCError(
                f"rack {rack_id!r}: unhandled message type {type(message).__name__}"
            )
        block, offset = self._pool.block_of[rack_id]
        slot_of = self._pool.slot_of
        written = self._batch_slots
        for job_id, rate, burst in message.entries:
            slot = slot_of.get((rack_id, job_id))
            if slot is None:
                continue
            written.add(slot)
            block.set_rates(slot - offset, rate, burst)
        return True

    def _ensure_sink_layout(self) -> None:
        """(job, hosting rack) -> block slot scatter map, placement-keyed.

        Per block, ``slots[k]`` is the block slot of its k-th (job, rack)
        hosting pair and ``reps[k]`` the job's index in the plane's vector
        job order; each pair appears exactly once, so the fancy
        assignments in :meth:`_enforce_array_sink` have no duplicate
        targets and write order cannot matter.
        """
        version = self.control_plane.placement_version
        if self._sink_version == version:
            return
        pool = self._pool
        slot_of, block_of = pool.slot_of, pool.block_of
        groups: Dict[FluidBlock, Tuple[List[int], List[int]]] = {}
        for position, job_id in enumerate(self.control_plane.vector_job_ids()):
            for rack_id in self.control_plane.hosting_locals(job_id):
                block, offset = block_of[rack_id]
                slots, reps = groups.setdefault(block, ([], []))
                slots.append(slot_of[(rack_id, job_id)] - offset)
                reps.append(position)
        self._sink = [
            (block, np.array(slots, dtype=np.intp), np.array(reps, dtype=np.intp))
            for block, (slots, reps) in groups.items()
        ]
        self._sink_version = version

    def _enforce_array_sink(self, now: float, per_stage: np.ndarray) -> None:
        """The plane's array enforcement lands in the blocks' slot arrays.

        ``per_stage`` is aligned to the plane's vector job order; the
        cached scatter map fans each job's (already split) rate out to
        every hosting rack's slot.  Algorithm pushes carry no explicit
        burst: the block derives ``rate * BURST_SECONDS``.
        """
        self._ensure_sink_layout()
        for block, slots, reps in self._sink:
            block.set_rates(slots, per_stage[reps])
        self._sink_ran = True

    # -- run loop -----------------------------------------------------------
    def run(self, duration: float) -> "ShardedSimulation":
        """Advance ``duration`` seconds of simulated time; returns self."""
        if self._state != "new":
            raise ConfigError(
                f"sharded simulation can only run once (state: {self._state})"
            )
        config = self.config
        epochs = duration / config.loop_interval
        if duration <= 0 or abs(epochs - round(epochs)) > 1e-9:
            raise ConfigError(
                "duration must be a positive multiple of loop_interval, got "
                f"{duration} with loop_interval={config.loop_interval}"
            )
        self._state = "ran"
        n_epochs = int(round(epochs))
        ticks_per_epoch = int(round(config.loop_interval / DT))
        loop_interval = config.loop_interval
        control_plane = self.control_plane
        pool = self._pool
        telemetry = self._telemetry
        batch_slots = self._batch_slots
        for epoch in range(n_epochs):
            t0 = epoch * loop_interval
            self._demand = pool.run_epoch_arrays(t0, ticks_per_epoch, loop_interval)
            now = t0 + loop_interval
            if self._epoch_hook is not None:
                self._epoch_hook(control_plane, now)
            self._sink_ran = False
            batch_slots.clear()
            control_plane.tick(now)
            if telemetry is not None:
                # A cycle's policy and pause pushes go to slots of
                # registered jobs, all of which the sink writes when it
                # runs: the distinct slots written are the sink's then.
                if self._sink_ran:
                    pushes = sum(len(slots) for _block, slots, _reps in self._sink)
                else:
                    pushes = len(batch_slots)
                telemetry.events.emit(
                    "shard.epoch", now, epoch=epoch, racks=config.n_racks, pushes=pushes
                )
        return self

    def finish(self) -> ShardedResult:
        """Collect per-rack finals and assemble the result of the run."""
        if self._state != "ran":
            raise ConfigError(
                f"finish() needs one completed run() (state: {self._state})"
            )
        finals = self._pool.finals()
        enforcement_log = tuple(self.control_plane.enforcement_log)
        self.close()
        rack_served = {final.rack_id: final.served for final in finals}
        aggregate = np.zeros(len(finals[0].served))
        # Rack-order accumulation: independent of shard blocking.
        for final in finals:
            aggregate += final.served
        job_granted: Dict[str, float] = {
            f"job{j}": 0.0 for j in range(self.config.n_jobs)
        }
        for final in finals:
            for job_id, granted in zip(final.job_ids, final.job_granted):
                job_granted[job_id] = job_granted[job_id] + float(granted)
        return ShardedResult(
            config=self.config,
            rack_served=rack_served,
            aggregate_served=aggregate,
            job_granted=job_granted,
            enforcement_log=enforcement_log,
            delivered_ops=float(sum(final.delivered_ops for final in finals)),
            final_backlog=float(sum(final.backlog for final in finals)),
        )

    def close(self) -> None:
        """Release everything the run built, without collecting results;
        idempotent.

        The plane holds the rack handlers and the array sink, bound to
        this simulation, so the simulation and its plane are a reference
        cycle until this drops the plane (``control_plane`` reads
        ``None`` after it), with the rack blocks, the sink's scatter map,
        the demand vector and the epoch hook: a closed simulation frees
        itself by reference counting, and one still referenced keeps
        none of its arrays.
        """
        self._state = "closed"
        self._pool = None
        self._sink = []
        self._demand = None
        self._epoch_hook = None
        self.control_plane = None

    def __enter__(self) -> "ShardedSimulation":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
