"""Lustre-like parallel file system simulator.

The substrate the experiments run against: a fluid metadata server with
a per-operation cost model, queueing, saturation and failure behaviour
(:mod:`repro.pfs.mds`), and a cluster wrapper with hot-standby failover
or DNE routing (:mod:`repro.pfs.cluster`).  The MDS is served per tick,
never per request; ``tests/pfs/test_fluid_validation.py`` checks it
against a per-request queue of the same capacity.  There are no data
servers: PADLL acts before the file system, so a data op ends where it is
delivered -- what the storage servers then do with its bytes is outside
the control loop, and no output reads it.
"""

from repro import lazy_exports

_EXPORTS = {
    "ClusterConfig": "repro.pfs.cluster",
    "LustreCluster": "repro.pfs.cluster",
    "MDSConfig": "repro.pfs.mds",
    "MetadataServer": "repro.pfs.mds",
    "OP_COSTS": "repro.pfs.costs",
    "PFSClient": "repro.pfs.client",
    "PFS_MOUNT": "repro.pfs.client",
    "op_cost": "repro.pfs.costs",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
