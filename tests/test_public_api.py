"""Public API surface checks.

These catch export regressions: every name in a package's ``__all__``
must resolve, every documented subpackage must import, and the top-level
``repro`` namespace must expose the objects README's quickstart uses.
"""

from __future__ import annotations

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.experiments",
    "repro.interpose",
    "repro.monitoring",
    "repro.pfs",
    "repro.runner",
    "repro.simulation",
    "repro.workloads",
]

MODULES = [
    "repro.cli",
    "repro.errors",
    "repro.core.algorithms",
    "repro.core.channel",
    "repro.core.config",
    "repro.core.controller",
    "repro.core.differentiation",
    "repro.core.policies",
    "repro.core.requests",
    "repro.core.rpc",
    "repro.core.stage",
    "repro.core.token_bucket",
    "repro.analysis.burstiness",
    "repro.analysis.export",
    "repro.analysis.fairness",
    "repro.analysis.plots",
    "repro.experiments.ablations",
    "repro.experiments.cost_aware",
    "repro.experiments.failover",
    "repro.experiments.fig1",
    "repro.experiments.fig2",
    "repro.experiments.fig4",
    "repro.experiments.fig5",
    "repro.experiments.harm",
    "repro.experiments.harness",
    "repro.experiments.overhead",
    "repro.interpose.live_bucket",
    "repro.interpose.live_stage",
    "repro.interpose.loop",
    "repro.interpose.monkeypatch",
    "repro.monitoring.collector",
    "repro.monitoring.metrics",
    "repro.pfs.client",
    "repro.pfs.cluster",
    "repro.pfs.costs",
    "repro.pfs.mds",
    "repro.runner.cache",
    "repro.runner.cells",
    "repro.runner.sweep",
    "repro.simulation.engine",
    "repro.simulation.rng",
    "repro.simulation.ticker",
    "repro.workloads.abci",
    "repro.workloads.ior",
    "repro.workloads.replayer",
    "repro.workloads.trace",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_all_resolves(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} has no __all__"
    for symbol in module.__all__:
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} has no module docstring"


def test_quickstart_names_available():
    import repro

    for name in (
        "ControlPlane", "DataPlaneStage", "ClassifierRule", "PolicyRule",
        "Request", "OperationType", "OperationClass", "StageIdentity",
        "ProportionalSharing", "TokenBucket",
    ):
        assert hasattr(repro, name), name


def test_version_consistent():
    import repro

    assert repro.__version__ == "1.0.0"


def test_public_classes_have_docstrings():
    """Every exported class/function of the core packages is documented."""
    import inspect

    for package_name in ("repro.core", "repro.pfs", "repro.workloads"):
        package = importlib.import_module(package_name)
        for symbol in package.__all__:
            obj = getattr(package, symbol)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{package_name}.{symbol} undocumented"
