"""PADLL core: the paper's primary contribution.

The data plane (:mod:`repro.core.stage`) intercepts POSIX requests,
differentiates them (:mod:`repro.core.differentiation`) and throttles them
through token-bucket enforcement channels (:mod:`repro.core.channel`).
The control plane (:mod:`repro.core.controller`) registers stages, groups
them by job, and runs a feedback loop that pushes rates computed from
policies (:mod:`repro.core.policies`) or control algorithms
(:mod:`repro.core.algorithms`) over an RPC fabric (:mod:`repro.core.rpc`).
"""

from repro.core.algorithms import (
    DominantResourceFairness,
    JobDemand,
    ProportionalSharing,
    StaticPartition,
)
from repro.core.channel import Channel
from repro.core.config import PadllConfig, load_config, parse_config
from repro.core.controller import ControlPlane, ControlPlaneConfig, JobInfo
from repro.core.differentiation import (
    Classifier,
    ClassifierRule,
    Decision,
    PASSTHROUGH,
)
from repro.core.policies import (
    PolicyRule,
    RateSchedule,
    RuleScope,
    SteppedRate,
)
from repro.core.requests import (
    OperationClass,
    OperationType,
    Request,
    MDS_OP_KINDS,
    POSIX_SURFACE,
)
from repro.core.rpc import RpcMessage
from repro.core.stage import DataPlaneStage, StageIdentity, StageStats
from repro.core.token_bucket import TokenBucket
from repro.core.transport import InProcTransport

__all__ = [
    "Channel",
    "Classifier",
    "ClassifierRule",
    "ControlPlane",
    "ControlPlaneConfig",
    "DataPlaneStage",
    "Decision",
    "DominantResourceFairness",
    "InProcTransport",
    "JobDemand",
    "JobInfo",
    "MDS_OP_KINDS",
    "OperationClass",
    "OperationType",
    "PASSTHROUGH",
    "POSIX_SURFACE",
    "PadllConfig",
    "PolicyRule",
    "ProportionalSharing",
    "RateSchedule",
    "Request",
    "RpcMessage",
    "RuleScope",
    "StageIdentity",
    "StageStats",
    "StaticPartition",
    "SteppedRate",
    "TokenBucket",
    "load_config",
    "parse_config",
]
