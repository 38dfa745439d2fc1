"""Lustre-like parallel file system simulator.

The substrate the experiments run against: a metadata server with a
per-operation cost model, queueing, saturation and failure behaviour
(:mod:`repro.pfs.mds`), its per-request counterpart with service threads
and a lock table (:mod:`repro.pfs.discrete`, :mod:`repro.pfs.locks`), an
object-storage bandwidth pool (:mod:`repro.pfs.oss`), and a cluster
wrapper with hot-standby failover or DNE routing (:mod:`repro.pfs.cluster`).
"""

from repro.pfs.client import PFS_MOUNT, PFSClient
from repro.pfs.cluster import ClusterConfig, LustreCluster
from repro.pfs.costs import OP_COSTS, op_cost
from repro.pfs.discrete import ClosedLoopClient, DiscreteMDS, DiscreteMDSConfig
from repro.pfs.locks import LockMode, LockTable
from repro.pfs.mds import MDSConfig, MetadataServer
from repro.pfs.oss import OSTarget, ObjectStoragePool

__all__ = [
    "ClosedLoopClient",
    "ClusterConfig",
    "DiscreteMDS",
    "DiscreteMDSConfig",
    "LockMode",
    "LockTable",
    "LustreCluster",
    "MDSConfig",
    "MetadataServer",
    "OP_COSTS",
    "OSTarget",
    "ObjectStoragePool",
    "PFSClient",
    "PFS_MOUNT",
    "op_cost",
]
