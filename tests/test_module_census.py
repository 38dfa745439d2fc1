"""Census: every module under ``src/repro`` has a user under ``src/repro``.

A module is *used* when another ``src/repro`` module

* imports it (``import a.b``, ``from a import b``, ``from a.b import x``;
  function-level imports count),
* imports from its package a name the package ``__init__`` re-exports
  from it (how ``cli.py`` reaches ``telemetry/waterfall.py``), or
* names it as ``"module:function"`` in the experiment table of
  ``repro/runner/cells.py``.

An ``__init__`` re-export that nobody consumes is not a use, and
``repro.cli`` is the one root.  What is kept without a user is listed in
``KEPT`` with what it serves; an entry that gains a user must leave the
list.  A module this test flags is deleted with its tests, or earns a
line in ``KEPT`` -- not an import added to quiet it.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, Optional, Set, Tuple

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
ROOT = "repro.cli"

#: Modules with no user under ``src/repro``, and what each is kept for.
KEPT = {
    "repro.experiments.latency": "EXPERIMENTS.md 'Latency isolation' "
    "(benchmarks/test_latency_qos.py); the one user of pfs/discrete.py",
    "repro.experiments.failover": "EXPERIMENTS.md 'Failover recovery storms' "
    "(benchmarks/test_failover.py)",
    "repro.analysis.fairness": "EXPERIMENTS.md 'Fig. 5' (Jain's index in "
    "benchmarks/test_fig5_per_job.py, examples/multi_job_fairness.py)",
    "repro.workloads.arrivals": "ROADMAP item 4(d): generated demand shapes",
    "repro.workloads.mdtest": "ROADMAP item 4(d); examples/mdtest_benchmark.py",
    "repro.workloads.dltraining": "ROADMAP item 4(d); "
    "examples/dl_training_protection.py",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES: Dict[str, Path] = {
    _module_name(path): path for path in sorted((SRC / "repro").rglob("*.py"))
}
PACKAGES: Set[str] = {
    name for name, path in MODULES.items() if path.name == "__init__.py"
}


def _imports(name: str) -> Iterator[Tuple[str, Optional[str]]]:
    """``(module, imported name or None)`` per import statement in ``name``."""
    package = name if name in PACKAGES else name.rpartition(".")[0]
    for node in ast.walk(ast.parse(MODULES[name].read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative: level 1 is the module's own package
                parts = package.split(".")
                anchor = parts[: len(parts) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            for alias in node.names:
                yield base, alias.name


def _origin(module: str, name: Optional[str]) -> str:
    """The module a ``from module import name`` lands in, following
    package ``__init__`` re-exports down to the defining module."""
    seen = set()
    while name is not None and (module, name) not in seen:
        seen.add((module, name))
        if f"{module}.{name}" in MODULES:
            return f"{module}.{name}"
        if module not in PACKAGES:
            break
        module = next(
            (base for base, imported in _imports(module)
             if imported == name and base in MODULES),
            module,
        )
    return module


@pytest.fixture(scope="module")
def users() -> Dict[str, Set[str]]:
    users: Dict[str, Set[str]] = {name: set() for name in MODULES}
    for name in MODULES:
        if name in PACKAGES:
            continue  # an __init__ re-export is not a use
        for base, imported in _imports(name):
            target = _origin(base, imported)
            if target in users and target != name:
                users[target].add(name)
    table = "repro.runner.cells"
    for node in ast.walk(ast.parse(MODULES[table].read_text())):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            module, colon, _function = node.value.partition(":")
            if colon and module in MODULES:
                users[module].add(table)
    return users


def test_every_module_has_a_user_or_a_reason(users):
    unused = {
        name
        for name in MODULES
        if name not in PACKAGES and name != ROOT and not users[name]
    }
    assert unused - set(KEPT) == set(), (
        "no src/repro module uses these; delete them with their tests or "
        "list them in KEPT with what they serve"
    )
    assert set(KEPT) - unused == set(), (
        "these KEPT entries have gained a user (or are gone); drop them "
        f"from the list: { {name: sorted(users.get(name, ())) for name in set(KEPT) - unused} }"
    )
    assert len(KEPT) <= 8


def test_the_rule_sees_the_three_kinds_of_use(users):
    # direct import, function-level
    assert "repro.cli" in users["repro.core.config"]
    # through a package __init__ re-export
    assert "repro.cli" in users["repro.telemetry.waterfall"]
    assert "repro.cli" in users["repro.lint.sarif"]
    assert "repro.cli" in users["repro.service.server"]
    # through the experiment table
    assert users["repro.experiments.cost_aware"] == {"repro.runner.cells"}
    # an __init__ that re-exports a module is not its user
    assert "repro.analysis" not in users["repro.analysis.fairness"]
