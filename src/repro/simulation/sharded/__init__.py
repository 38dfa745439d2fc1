"""Sharded fluid simulation: per-rack engine shards behind an epoch barrier.

Scales a run to 10^4 stages / 10^6 simulated clients by modelling each
rack as a sealed closed-form fluid sub-world (vectorised numpy stage and
token-bucket updates, one array set per block of racks), running the
rack blocks in-process one after another, and synchronising with the
control plane once per loop interval.  Fixed-seed outputs are
bit-identical across shard counts, and a block's array arithmetic to its
racks taken one by one and to the scalar per-stage reference -- see
:mod:`repro.simulation.sharded.fluid` for the float contract and
``tests/simulation/test_sharded.py`` for the assertions.
"""

from repro import lazy_exports

_EXPORTS = {
    "UNLIMITED": "repro.simulation.sharded.fluid",
    "FluidConfig": "repro.simulation.sharded.fluid",
    "RackFinal": "repro.simulation.sharded.pool",
    "RackSpec": "repro.simulation.sharded.fluid",
    "ShardPool": "repro.simulation.sharded.pool",
    "ShardedConfig": "repro.simulation.sharded.coordinator",
    "ShardedResult": "repro.simulation.sharded.coordinator",
    "ShardedSimulation": "repro.simulation.sharded.coordinator",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
