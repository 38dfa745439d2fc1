"""The sharded engine's per-slot layout: the frozen rack/job slot map.

One **slot** is one ``(rack, job)`` pair.  :class:`ShardIndexMap` numbers
them from the rack specs alone: racks in global order, each rack's jobs
in local registration order (the exact first-appearance order
:class:`~repro.simulation.sharded.fluid.FluidBlock` uses), contiguously
rack by rack.  A rack therefore owns the half-open slot range
``rack_slice(rack_id)`` and a shard -- a contiguous range of racks, one
``FluidBlock`` -- one contiguous slice of every per-slot array.

Per epoch the coordinator hands the pool three per-slot float64 arrays
-- an update flag (1.0 = this slot has a rate update), the final
per-stage rate, and the explicit burst or :data:`BURST_NONE` -- and gets
back one: each slot's per-job demand partial.  Job ids and per-slot
stage counts are static, so they live in the map, not in the arrays.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigError
from repro.simulation.sharded.fluid import RackSpec

__all__ = ["BURST_NONE", "ShardIndexMap"]

#: Burst sentinel meaning ``burst=None`` (derive from rate * burst_seconds).
BURST_NONE = float("nan")


class ShardIndexMap:
    """Frozen ``(rack, job) -> slot`` layout, built from the rack specs."""

    __slots__ = (
        "rack_ids",
        "rack_job_ids",
        "rack_stage_counts",
        "n_slots",
        "_rack_slices",
        "_slot_of",
    )

    def __init__(self, specs: Sequence[RackSpec]) -> None:
        self.rack_ids: Tuple[str, ...] = tuple(spec.rack_id for spec in specs)
        if len(set(self.rack_ids)) != len(self.rack_ids):
            raise ConfigError("duplicate rack ids in shard index map")
        rack_job_ids: List[Tuple[str, ...]] = []
        rack_stage_counts: List[Tuple[int, ...]] = []
        self._rack_slices: Dict[str, slice] = {}
        self._slot_of: Dict[Tuple[str, str], int] = {}
        offset = 0
        for spec in specs:
            # First-appearance job order and per-job stage counts: the
            # exact registry FluidBlock builds from the same specs (pinned
            # by tests/simulation/test_sharded.py).
            job_ids: List[str] = []
            counts: Dict[str, int] = {}
            for _stage_id, job_id in spec.stages:
                if job_id not in counts:
                    counts[job_id] = 0
                    job_ids.append(job_id)
                counts[job_id] += 1
            rack_job_ids.append(tuple(job_ids))
            rack_stage_counts.append(tuple(counts[j] for j in job_ids))
            self._rack_slices[spec.rack_id] = slice(offset, offset + len(job_ids))
            for k, job_id in enumerate(job_ids):
                self._slot_of[(spec.rack_id, job_id)] = offset + k
            offset += len(job_ids)
        self.rack_job_ids: Tuple[Tuple[str, ...], ...] = tuple(rack_job_ids)
        self.rack_stage_counts: Tuple[Tuple[int, ...], ...] = tuple(
            rack_stage_counts
        )
        self.n_slots = offset

    def rack_slice(self, rack_id: str) -> slice:
        """Half-open global slot range owned by ``rack_id``."""
        return self._rack_slices[rack_id]

    def slot_of(self, rack_id: str, job_id: str) -> int:
        """Global slot of ``(rack_id, job_id)``, or -1 if not hosted."""
        return self._slot_of.get((rack_id, job_id), -1)
