"""Per-operation MDS cost model.

Section II of the paper observes that metadata operations carry very
different costs: ``getattr`` only takes read locks; ``open``/``close``
update namespace state under several locks; ``rename`` must be atomic
(particularly expensive when crossing MDTs); ``mkdir``/``mknod`` need
strong guarantees.  The cost table below encodes that ordering in abstract
*cost units*: an MDS with capacity C units/s serves C getattrs/s but only
C/8 renames/s.

The absolute values are calibration constants, not measurements; every
experiment conclusion depends only on the ordering (getattr < setattr <
close < open < unlink < mkdir < rename), which is the paper's.  The data
kinds (``read``, ``write``) have no entry: no MDS serves them.
"""

from __future__ import annotations

from types import MappingProxyType

from repro.errors import ConfigError

__all__ = ["OP_COSTS", "op_cost"]

#: MDS operation kind -> cost units per operation.
OP_COSTS = MappingProxyType(
    {
        "getattr": 1.0,
        "statfs": 0.5,
        "sync": 2.0,
        "setattr": 2.0,
        "close": 2.5,
        "open": 3.0,
        "link": 3.0,
        "unlink": 4.0,
        "mknod": 4.0,
        "mkdir": 5.0,
        "rmdir": 5.0,
        "rename": 8.0,
    }
)


def op_cost(kind: str) -> float:
    """Cost units of one MDS operation of ``kind``."""
    try:
        return OP_COSTS[kind]
    except KeyError:
        raise ConfigError(f"unknown MDS operation kind {kind!r}") from None

