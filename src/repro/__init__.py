"""PADLL reproduction: application-level I/O control for HPC metadata QoS.

Public API highlights
---------------------
- :class:`repro.core.DataPlaneStage` -- per-node interception stage.
- :class:`repro.core.ControlPlane` -- global coordinator / feedback loop.
- :class:`repro.core.ProportionalSharing` -- the paper's control algorithm.
- :mod:`repro.pfs` -- Lustre-like metadata service simulator (MDS, DNE).
- :mod:`repro.workloads` -- ABCI-calibrated trace generator, replayer, IOR.
- :mod:`repro.interpose` -- live monkey-patch interposition for real I/O.
- :mod:`repro.experiments` -- regenerates every figure in the paper.
"""

from repro.core import (
    Channel,
    Classifier,
    ClassifierRule,
    ControlPlane,
    ControlPlaneConfig,
    DataPlaneStage,
    DominantResourceFairness,
    JobDemand,
    OperationClass,
    OperationType,
    PolicyRule,
    ProportionalSharing,
    Request,
    RuleScope,
    StageIdentity,
    StaticPartition,
    SteppedRate,
    TokenBucket,
)

__version__ = "1.0.0"

__all__ = [
    "Channel",
    "Classifier",
    "ClassifierRule",
    "ControlPlane",
    "ControlPlaneConfig",
    "DataPlaneStage",
    "DominantResourceFairness",
    "JobDemand",
    "OperationClass",
    "OperationType",
    "PolicyRule",
    "ProportionalSharing",
    "Request",
    "RuleScope",
    "StageIdentity",
    "StaticPartition",
    "SteppedRate",
    "TokenBucket",
    "__version__",
]
