"""PADLL core: the paper's primary contribution.

The data plane (:mod:`repro.core.stage`) intercepts POSIX requests,
differentiates them (:mod:`repro.core.differentiation`) and throttles them
through token-bucket enforcement channels (:mod:`repro.core.channel`).
The control plane (:mod:`repro.core.controller`) registers stages, groups
them by job, and runs a feedback loop that pushes rates computed from
policies (:mod:`repro.core.policies`) or control algorithms
(:mod:`repro.core.algorithms`) over an RPC fabric (:mod:`repro.core.rpc`).
"""

from repro import lazy_exports

_EXPORTS = {
    "Channel": "repro.core.channel",
    "Classifier": "repro.core.differentiation",
    "ClassifierRule": "repro.core.differentiation",
    "ControlPlane": "repro.core.controller",
    "ControlPlaneConfig": "repro.core.controller",
    "DataPlaneStage": "repro.core.stage",
    "Decision": "repro.core.differentiation",
    "DominantResourceFairness": "repro.core.algorithms",
    "InProcTransport": "repro.core.transport",
    "JobDemand": "repro.core.algorithms",
    "JobInfo": "repro.core.controller",
    "MDS_OP_KINDS": "repro.core.requests",
    "OperationClass": "repro.core.requests",
    "OperationType": "repro.core.requests",
    "PASSTHROUGH": "repro.core.differentiation",
    "POSIX_SURFACE": "repro.core.requests",
    "PadllConfig": "repro.core.config",
    "PolicyRule": "repro.core.policies",
    "ProportionalSharing": "repro.core.algorithms",
    "RateSchedule": "repro.core.policies",
    "Request": "repro.core.requests",
    "RpcMessage": "repro.core.rpc",
    "RuleScope": "repro.core.policies",
    "StageIdentity": "repro.core.stage",
    "StageStats": "repro.core.stage",
    "StaticPartition": "repro.core.algorithms",
    "SteppedRate": "repro.core.policies",
    "TokenBucket": "repro.core.token_bucket",
    "load_config": "repro.core.config",
    "parse_config": "repro.core.config",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
