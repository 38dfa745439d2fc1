"""Rack blocks run in-process, one after another, behind an epoch barrier.

A :class:`ShardPool` holds one
:class:`~repro.simulation.sharded.fluid.FluidBlock` per shard (a
contiguous block of racks as one array set); each reads and writes only
its own slot slice of the one global
:class:`~repro.simulation.sharded.shm.ShardIndexMap` layout.  Racks only
exchange state at epoch boundaries, so 1 shard and N shards are
bit-identical by construction (the invariance tests assert it).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.simulation.sharded.fluid import FluidBlock, FluidConfig, RackFinal, RackSpec
from repro.simulation.sharded.shm import ShardIndexMap

__all__ = ["RackFinal", "ShardPool"]


def _run_epoch(
    block: FluidBlock, t0, n_ticks, loop_interval, flags, rates, bursts
) -> np.ndarray:
    """The one epoch body: install the pushed rates, advance, report.

    ``flags``/``rates``/``bursts`` and the returned demand partials are
    aligned to the block's slots.
    """
    block.apply_rate_arrays(flags != 0.0, rates, bursts)
    block.run_epoch(t0, n_ticks)
    return block.demand_partials_array(loop_interval)


class ShardPool:
    """Rack blocks advanced in shard order in the calling process.

    ``shards`` lists rack-spec blocks, one per shard, in global rack order.
    """

    def __init__(
        self, shards: Sequence[Sequence[RackSpec]], config: FluidConfig
    ) -> None:
        blocks = [tuple(block) for block in shards]
        if not blocks or not all(blocks):
            raise ConfigError("need at least one shard, each with a rack")
        self.n_shards = len(blocks)
        self.index_map = ShardIndexMap([spec for block in blocks for spec in block])
        self.n_slots = self.index_map.n_slots
        # A block's slots run from its first rack's slice start to its
        # last rack's slice stop in the one global map.
        rack_slice = self.index_map.rack_slice
        self._blocks: Optional[List[Tuple[FluidBlock, slice]]] = [
            (
                FluidBlock(block, config),
                slice(rack_slice(block[0].rack_id).start,
                      rack_slice(block[-1].rack_id).stop),
            )
            for block in blocks
        ]

    def _live_blocks(self) -> List[Tuple[FluidBlock, slice]]:
        if self._blocks is None:
            raise ConfigError("pool is closed")
        return self._blocks

    def run_epoch_arrays(
        self, t0: float, n_ticks: int, loop_interval: float,
        flags: np.ndarray, rates: np.ndarray, bursts: np.ndarray,
    ) -> np.ndarray:
        """Advance every block one epoch.

        ``flags``/``rates``/``bursts`` are per-slot float64 arrays in
        :attr:`index_map` order (``flags[s] != 0`` means slot ``s`` has a
        rate update; NaN burst means "derive from the rate").  Returns
        the per-slot demand partials in the same order.
        """
        return np.concatenate([
            _run_epoch(block, t0, n_ticks, loop_interval, flags[s], rates[s], bursts[s])
            for block, s in self._live_blocks()
        ])

    def finish(self) -> List[RackFinal]:
        """Collect per-rack finals (in rack order) and close the pool."""
        finals = [final for block, _ in self._live_blocks() for final in block.finals()]
        self.close()
        return finals

    def close(self) -> None:
        """Drop the blocks; safe to call repeatedly."""
        self._blocks = None

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
