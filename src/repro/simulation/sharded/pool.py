"""Rack blocks run in-process, one after another, behind an epoch barrier.

A :class:`ShardPool` holds one
:class:`~repro.simulation.sharded.fluid.FluidBlock` per shard (a
contiguous block of racks as one array set).  Each block numbers its own
slots (one per ``(rack, job)``); the pool lays the blocks' slots end to
end, so a block's demand partials are one contiguous slice of the
pool's, and ``block_of`` turns a rack's global slots back into its
block's.  Racks only exchange state at epoch boundaries, so 1 shard and
N shards are bit-identical by construction (the invariance tests assert
it).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.simulation.sharded.fluid import (
    FluidBlock,
    FluidConfig,
    RackFinal,
    RackSlots,
    RackSpec,
)

__all__ = ["RackFinal", "ShardPool"]


class ShardPool:
    """Rack blocks advanced in shard order in the calling process.

    ``shards`` lists rack-spec blocks, one per shard, in global rack order.
    """

    def __init__(
        self, shards: Sequence[Sequence[RackSpec]], config: FluidConfig
    ) -> None:
        if not shards or not all(shards):
            raise ConfigError("need at least one shard, each with a rack")
        #: rack id -> its job ids, global slot slice and stage counts.
        self.racks: Dict[str, RackSlots] = {}
        #: ``(rack id, job id)`` -> global slot, for every hosted pair.
        self.slot_of: Dict[Tuple[str, str], int] = {}
        #: rack id -> its block and the block's first global slot.
        self.block_of: Dict[str, Tuple[FluidBlock, int]] = {}
        self._blocks: List[Tuple[FluidBlock, slice]] = []
        offset = 0
        for specs in shards:
            block = FluidBlock(specs, config)
            for rack_id, rack in zip(block.rack_ids, block.layout):
                if rack_id in self.racks:
                    raise ConfigError(f"duplicate rack id {rack_id!r}")
                self.block_of[rack_id] = (block, offset)
                first = offset + rack.slots.start
                self.racks[rack_id] = rack._replace(
                    slots=slice(first, offset + rack.slots.stop)
                )
                for k, job_id in enumerate(rack.job_ids):
                    self.slot_of[(rack_id, job_id)] = first + k
            self._blocks.append((block, slice(offset, offset + block.n_slots)))
            offset += block.n_slots
        self.n_slots = offset

    def run_epoch_arrays(
        self, t0: float, n_ticks: int, loop_interval: float
    ) -> np.ndarray:
        """Advance every block one epoch (each lands the rates pushed
        into it since the last one first); returns the per-slot demand
        partials in global slot order."""
        partials = []
        for block, _slots in self._blocks:
            block.run_epoch(t0, n_ticks)
            partials.append(block.demand_partials_array(loop_interval))
        return np.concatenate(partials)

    def finals(self) -> List[RackFinal]:
        """Every rack's end-of-run snapshot, in rack order."""
        return [final for block, _ in self._blocks for final in block.finals()]
