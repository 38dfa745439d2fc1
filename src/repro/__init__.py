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

Every package re-exports its public names lazily: a name is imported
from the module that defines it on first use (:func:`lazy_exports`), so
``import repro.interpose`` loads neither numpy nor the control plane.
"""

import importlib

__version__ = "1.0.0"


def lazy_exports(namespace: dict, exports: dict[str, str]):
    """PEP 562 ``(__getattr__, __dir__)`` for a package's re-exports.

    ``exports`` maps each public name to the module that defines it;
    ``namespace`` is the package's ``globals()``.  The first read of a
    name imports its module and caches the value in the package, so
    later reads are plain attribute lookups and importing the package
    imports none of its modules.  Any other name is an
    ``AttributeError`` (which ``from package import submodule`` turns
    into a submodule import, as without the hook).
    """
    package = namespace["__name__"]

    def __getattr__(name: str):
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__():
        return sorted({*namespace, *exports})

    return __getattr__, __dir__


_EXPORTS = {
    "Channel": "repro.core.channel",
    "Classifier": "repro.core.differentiation",
    "ClassifierRule": "repro.core.differentiation",
    "ControlPlane": "repro.core.controller",
    "ControlPlaneConfig": "repro.core.controller",
    "DataPlaneStage": "repro.core.stage",
    "DominantResourceFairness": "repro.core.algorithms",
    "JobDemand": "repro.core.algorithms",
    "OperationClass": "repro.core.requests",
    "OperationType": "repro.core.requests",
    "PolicyRule": "repro.core.policies",
    "ProportionalSharing": "repro.core.algorithms",
    "Request": "repro.core.requests",
    "RuleScope": "repro.core.policies",
    "StageIdentity": "repro.core.stage",
    "StaticPartition": "repro.core.algorithms",
    "SteppedRate": "repro.core.policies",
    "TokenBucket": "repro.core.token_bucket",
}

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
