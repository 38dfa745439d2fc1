"""Census: every module-level import under ``src/repro`` is read by its module.

An import binds a name; the module *reads* it when the name appears as
an expression anywhere in the module (function-level code and
annotations count, string annotations too).  Exempt are a package
``__init__`` (its imports are re-exports), a name the module lists in
``__all__``, and a module-level name the frozen benchmark patches in that
module (``tests/test_bench_contract.py::PATCHED``).  A name this test
flags is deleted from its import -- not read somewhere to quiet it.
"""

from __future__ import annotations

import ast
import types
from pathlib import Path
from typing import Iterator, List, Set, Tuple

from tests.test_bench_contract import PATCHED

SRC = Path(__file__).resolve().parents[1] / "src"

#: ``(module, name)`` the benchmark patches in an importing module.
PATCHED_NAMES = {
    (owner.__name__, attr) for owner, attr in PATCHED
    if isinstance(owner, types.ModuleType)
}


def _module_imports(tree: ast.Module) -> Iterator[Tuple[int, str]]:
    """``(line, bound name)`` of each import not nested in a def or class."""
    body: List[ast.stmt] = list(tree.body)
    while body:
        node = body.pop(0)
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name
        elif isinstance(node, (ast.If, ast.Try)):
            body.extend(node.body)
            body.extend(node.orelse)
            for handler in getattr(node, "handlers", ()):
                body.extend(handler.body)
            body.extend(getattr(node, "finalbody", ()))


def _names_read(tree: ast.Module) -> Set[str]:
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    expr = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                read |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return read


def _exported(tree: ast.Module) -> Set[str]:
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            return {
                c.value for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            }
    return set()


def unused_imports(path: Path) -> List[str]:
    """``module:line: name`` for each module-level import nothing reads."""
    module = ".".join(path.relative_to(SRC).with_suffix("").parts)
    tree = ast.parse(path.read_text())
    kept = _names_read(tree) | _exported(tree)
    return [
        f"{module}:{line}: {name}"
        for line, name in _module_imports(tree)
        if name not in kept and (module, name) not in PATCHED_NAMES
    ]


def test_every_module_level_import_is_read():
    unused = [
        entry
        for path in sorted((SRC / "repro").rglob("*.py"))
        if path.name != "__init__.py"
        for entry in unused_imports(path)
    ]
    assert unused == [], "delete these imports; nothing in their module reads them"


def test_the_rule_flags_an_unread_import_and_spares_the_exempt(tmp_path, monkeypatch):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "probe.py").write_text(
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from typing import Dict, List, Optional\n"
        "from repro.errors import ConfigError\n"
        "from repro.workloads.abci import generate_mdt_trace\n"
        "if True:\n"
        "    import json\n"
        "__all__ = ['ConfigError']\n"
        "def f(x: 'Optional[int]') -> Dict[str, int]:\n"
        "    return os.path.join(x)\n"
    )
    monkeypatch.setattr(
        "tests.test_unused_imports.SRC", tmp_path, raising=True
    )
    monkeypatch.setattr(
        "tests.test_unused_imports.PATCHED_NAMES",
        {("repro.probe", "generate_mdt_trace")},
    )
    assert unused_imports(package / "probe.py") == [
        "repro.probe:2: math",
        "repro.probe:4: List",
        "repro.probe:8: json",
    ]
