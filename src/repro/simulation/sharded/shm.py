"""Zero-copy shard wire format: index map + shared-memory buffers.

Per-epoch demand partials and enforcement rates cross the process
boundary as fixed-layout ``float64`` blocks in
:mod:`multiprocessing.shared_memory` segments -- no ``O(jobs x racks)``
Python objects are serialised per control epoch -- and each worker's
pipe carries only a tiny "epoch N ready" doorbell.

Wire format (``LAYOUT_VERSION`` 1)
----------------------------------
At pool startup both sides build the same frozen :class:`ShardIndexMap`
from the rack specs: racks in global order, each rack's jobs in local
registration order (the exact first-appearance order
:class:`~repro.simulation.sharded.fluid.FluidBlock` uses).  One **slot**
is one ``(rack, job)`` pair; slots are numbered contiguously rack by
rack, so a rack owns the half-open slot range ``rack_slice(rack_id)``
and a shard -- a contiguous range of racks, one ``FluidBlock`` -- one
contiguous slice, which is all its worker reads or writes.  Job ids and
per-slot stage counts are static, so only floats ride the wire:

* **scatter** (coordinator -> shards): shape ``(2, n_slots, 3)`` --
  columns ``COL_FLAG`` (1.0 = this slot has a rate update this epoch),
  ``COL_RATE`` (final per-stage rate; a slot holds at most one value per
  epoch, so of two pushes to one slot the later simply overwrites), and
  ``COL_BURST`` (explicit burst, or :data:`BURST_NONE` = NaN meaning
  "derive from the rate", i.e. ``burst=None``).
* **gather** (shards -> coordinator): shape ``(2, n_slots)`` -- the
  per-job demand partial of each slot; a worker writes its slice with
  one :meth:`~repro.simulation.sharded.fluid.FluidBlock.demand_partials_array`.

The leading axis is the **double buffer**: epoch ``e`` uses parity
``e % 2``, so the coordinator can assemble epoch ``e+1``'s scatter block
while a straggler shard is still draining epoch ``e``'s, and a reply
that raced the barrier can never be clobbered mid-read.  The doorbell
pipe carries only ``("epoch", e, parity, t0, n_ticks, loop_interval)``
down and ``("done", e)`` back.

Index-map versioning: :meth:`ShardIndexMap.layout_token` hashes
``LAYOUT_VERSION`` plus the full (rack, job, stage-count) layout; the
coordinator sends it with the worker's startup arguments and the worker
refuses to serve if its independently-built map disagrees -- a layout
drift fails loudly at attach time instead of corrupting floats silently.

Segment hygiene: the coordinator creates and eventually unlinks the
segments (``ShardPool`` close/crash/atexit paths); workers only attach
via :func:`attach_segment` and never unlink or unregister, so unlink
authority stays solely with the creator while the shared
``resource_tracker`` still reclaims the segments if the whole tree dies.
"""

from __future__ import annotations

import hashlib
from multiprocessing import shared_memory
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.simulation.sharded.fluid import RackSpec

__all__ = [
    "LAYOUT_VERSION",
    "COL_FLAG",
    "COL_RATE",
    "COL_BURST",
    "SCATTER_COLS",
    "BURST_NONE",
    "ShardIndexMap",
    "ShardBuffers",
    "attach_segment",
]

#: Bump when the buffer layout below changes shape or meaning.
LAYOUT_VERSION = 1

#: Scatter columns: update flag, per-stage rate, burst (NaN = derive).
COL_FLAG, COL_RATE, COL_BURST = 0, 1, 2
SCATTER_COLS = 3

#: Burst sentinel meaning ``burst=None`` (derive from rate * burst_seconds).
BURST_NONE = float("nan")


class ShardIndexMap:
    """Frozen ``(rack, job) -> slot`` layout shared by both wire ends.

    Built deterministically from the rack specs alone, so the
    coordinator and every worker derive the identical map without
    shipping it; :meth:`layout_token` guards against drift.
    """

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
            # by tests/simulation/test_shm_fabric.py and test_sharded.py).
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

    def layout_token(self) -> str:
        """SHA-256 fingerprint of the layout, prefixed by its version."""
        digest = hashlib.sha256()
        digest.update(f"v{LAYOUT_VERSION};".encode())
        for rack_id, job_ids, counts in zip(
            self.rack_ids, self.rack_job_ids, self.rack_stage_counts
        ):
            digest.update(rack_id.encode())
            digest.update(b"\x00")
            for job_id, count in zip(job_ids, counts):
                digest.update(f"{job_id}={count};".encode())
            digest.update(b"\x01")
        return digest.hexdigest()


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without claiming ownership.

    The ``resource_tracker`` process is shared by the whole process tree
    (fork inherits its fd, spawn passes it), and its per-type cache is a
    set -- so the attach-side ``register`` this performs is an idempotent
    no-op on top of the creator's entry, and the creator's ``unlink()``
    issues the one matching ``unregister``.  Crucially the attaching
    worker must NOT unregister the name itself (this Python has no
    ``track=False``): with a shared tracker that would remove the
    creator's entry, making the creator's later unlink crash the tracker
    with a KeyError and losing leak protection if the coordinator dies.
    """
    return shared_memory.SharedMemory(name=name)


class ShardBuffers:
    """The scatter/gather segment pair plus typed numpy views.

    Created (and later unlinked) by the coordinator with
    ``ShardBuffers(n_slots)``; workers attach to an existing pair with
    ``ShardBuffers(n_slots, names=(scatter, gather))``.
    """

    __slots__ = ("n_slots", "owner", "_scatter_shm", "_gather_shm",
                 "scatter", "gather")

    def __init__(
        self, n_slots: int, names: Tuple[str, str] | None = None
    ) -> None:
        if n_slots < 0:
            raise ConfigError(f"n_slots must be >= 0, got {n_slots}")
        self.n_slots = n_slots
        scatter_bytes = max(1, 2 * n_slots * SCATTER_COLS * 8)
        gather_bytes = max(1, 2 * n_slots * 8)
        self.owner = names is None
        if names is None:
            self._scatter_shm = shared_memory.SharedMemory(
                create=True, size=scatter_bytes
            )
            self._gather_shm = shared_memory.SharedMemory(
                create=True, size=gather_bytes
            )
        else:
            self._scatter_shm = attach_segment(names[0])
            self._gather_shm = attach_segment(names[1])
        self.scatter = np.ndarray(
            (2, n_slots, SCATTER_COLS),
            dtype=np.float64,
            buffer=self._scatter_shm.buf,
        )
        self.gather = np.ndarray(
            (2, n_slots), dtype=np.float64, buffer=self._gather_shm.buf
        )
        if self.owner:
            self.scatter.fill(0.0)
            self.gather.fill(0.0)

    @property
    def names(self) -> Tuple[str, str]:
        return (self._scatter_shm.name, self._gather_shm.name)

    def close(self) -> None:
        """Drop this process's mapping (segments stay alive)."""
        # Release the numpy views first: SharedMemory.close() refuses
        # (BufferError) while exported memoryviews are alive.
        self.scatter = None  # type: ignore[assignment]
        self.gather = None  # type: ignore[assignment]
        for segment in (self._scatter_shm, self._gather_shm):
            try:
                segment.close()
            except (OSError, BufferError):  # pragma: no cover - teardown race
                pass

    def unlink(self) -> None:
        """Remove the segments from the system (owner only; idempotent)."""
        for segment in (self._scatter_shm, self._gather_shm):
            try:
                segment.unlink()
            except FileNotFoundError:
                pass
            except OSError:  # pragma: no cover - platform quirk
                pass
