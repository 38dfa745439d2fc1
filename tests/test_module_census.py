"""Census: every module under ``src/repro`` has a user under ``src/repro``,
and every function no entry point reaches has a reason (``KEPT_UNREACHED``).

A module is *used* when another ``src/repro`` module

* imports it (``import a.b``, ``from a import b``, ``from a.b import x``;
  function-level imports count),
* imports from its package a name the package ``__init__`` re-exports
  from it -- a key of the package's ``_EXPORTS`` table, which maps each
  lazily re-exported name to its defining module (how ``cli.py`` reaches
  ``telemetry/waterfall.py``), or
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
    "repro.experiments.failover": "EXPERIMENTS.md 'Failover recovery storms' "
    "(benchmarks/test_failover.py)",
    "repro.analysis.fairness": "EXPERIMENTS.md 'Fig. 5' (Jain's index in "
    "benchmarks/test_fig5_per_job.py, examples/multi_job_fairness.py)",
}

#: Why a function of >= 5 lines that no entry point enters may stay.
REASONS = (
    "reference",  # an implementation or comparison a test checks results against
    "fault path",  # runs only when something fails, is refused or is evicted
    "paper verb",  # a control verb of the paper no controller here sends
    "pinned by PATCHED",  # tests/test_bench_contract.py names it
    "roadmap",  # the open ROADMAP item that will call it
    "boundary",  # an input no entry point presents, handled rather than refused
)

#: ``module:qualname`` of every such function -> ``reason: what it serves``.
#: ``tests/tools/reach_census.py`` (the ``reach-census`` CI job) traces every
#: entry point that is not ``tests/`` and fails on one that is missing here;
#: a function it names is deleted with its tests, or earns a line with one
#: of ``REASONS`` -- not a caller added to quiet it.
KEPT_UNREACHED: Dict[str, str] = {
    "repro.core.differentiation:Classifier.remove_rule": "paper verb: RemoveRule "
    "(wire golden corpus)",
    "repro.core.stage:StageCore.remove_channel": "paper verb: RemoveChannel "
    "(wire golden corpus)",
    "repro.core.ringlog:RingLog.__eq__": "reference: job locals == racks and InProc == "
    "TCP compare enforcement logs with it",
    "repro.core.ringlog:RingLog.__repr__": "reference: what a failed log comparison prints",
    "repro.core.ringlog:RingLog._drop": "boundary: a log past its capacity (the wrapped-log "
    "digest of tests/simulation/test_sharded.py and the sharded-smoke CI job)",
    "repro.core.ringlog:RingLog.extend": "boundary: the log's list-like bulk write; "
    "the control cycle writes its rows through extend_rows",
    "repro.core.transport:InProcTransport.call": "reference: direct delivery, the "
    "in-process side of tests/net (the fabric goes through handler())",
    "repro.core.wire:_emit_base": "fault path: a value whose exact type has no emitter",
    "repro.core.wire:raise_error": "fault path: an error reply re-raised at the caller",
    "repro.lint.rules:LintContext.parent": "fault path: walked only in a module that "
    "holds what a rule polices",
    "repro.lint.rules:LintContext.wrapped_in": "fault path: DET003's sorted() check, "
    "reached only by an unordered fs call",
    "repro.monitoring.metrics:TimeSeries._grow": "boundary: a series past its first "
    "1 024 samples",
    "repro.runner.sweep:results_equal": "reference: serial == parallel == cached sweeps",
    "repro.service.sinks:JsonlSink._rotate_locked": "fault path: a sink past "
    "audit_rotate_bytes",
    "repro.service.sinks:load_jsonl": "roadmap: item 4(b), journal replay on restart",
    "repro.simulation.engine:Event.__repr__": "fault path: names the event in "
    "'already triggered'",
    "repro.simulation.engine:Event.fail": "fault path: a failed event thrown into its "
    "waiters",
    "repro.simulation.sharded.fluid:FluidBlock._tick_scalar": "reference: the rack "
    "and block bit-identity tests compare the vector tick against it",
    "repro.telemetry.registry:Histogram.merge": "roadmap: item 5 ships "
    "padll_enforce_propagation_seconds from stage hosts; no live stage has a histogram yet",
    "repro.workloads.replayer:ReplayDriver._unroll": "reference: the per-request "
    "schedule the fused replay is checked against",
    "repro.workloads.trace:OpTrace.__eq__": "reference: save/load round trips compare "
    "traces with it",
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
    """``(module, imported name or None)`` per import statement in ``name``,
    and ``(defining module, name)`` per entry of its ``_EXPORTS`` table."""
    package = name if name in PACKAGES else name.rpartition(".")[0]
    for node in ast.walk(ast.parse(MODULES[name].read_text())):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "_EXPORTS"
            for target in node.targets
        ):
            for exported, module in ast.literal_eval(node.value).items():
                yield module, exported
        elif isinstance(node, ast.Import):
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
    package ``__init__`` re-exports (their ``_EXPORTS`` tables) down to
    the defining module."""
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
    assert "repro.workloads" not in users["repro.workloads.ior"]


def _qualnames(path: Path) -> Set[str]:
    """Every function's ``__qualname__`` in ``path``, from the source."""
    names: Set[str] = set()

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(prefix + child.name)
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return names


def test_every_kept_unreached_entry_names_a_function_and_a_reason():
    stale = set()
    for key in KEPT_UNREACHED:
        module, _, qualname = key.partition(":")
        if module not in MODULES or qualname not in _qualnames(MODULES[module]):
            stale.add(key)
    assert stale == set(), "no such function any more; drop these from KEPT_UNREACHED"
    unexplained = {
        key: why for key, why in KEPT_UNREACHED.items()
        if why.partition(":")[0] not in REASONS or not why.partition(":")[2].strip()
    }
    assert unexplained == {}, f"each entry reads '<one of {REASONS}>: what it serves'"
