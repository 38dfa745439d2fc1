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

from repro.pfs.client import PFS_MOUNT, PFSClient
from repro.pfs.cluster import ClusterConfig, LustreCluster
from repro.pfs.costs import OP_COSTS, op_cost
from repro.pfs.mds import MDSConfig, MetadataServer

__all__ = [
    "ClusterConfig",
    "LustreCluster",
    "MDSConfig",
    "MetadataServer",
    "OP_COSTS",
    "PFSClient",
    "PFS_MOUNT",
    "op_cost",
]
