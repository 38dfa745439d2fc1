"""Per-module fact collection and the whole-program symbol table.

The two-pass engine first *collects* a :class:`ModuleFacts` record per
module (one AST walk, alongside the per-module rules), then hands every
record to the cross-module :class:`~repro.lint.project_rules.ProjectRule`
pass through a :class:`ProjectContext`.  Facts are plain data -- never
AST nodes -- so project rules attribute findings to concrete
``(path, line, source)`` sites without holding the module trees alive.

What is collected (each entry names the rules that consume it):

* class definitions with canonicalised bases, method names, class-body
  flags, NamedTuple arity, and ``Tuple[...]`` field annotations
  (WIRE001/002, VEC001)
* capitalized constructor call sites and ``isinstance`` targets inside
  ``handle*`` dispatchers, with module-level tuple constants expanded
  (WIRE001)
* positional tuple-unpacks over plain attribute sequences (WIRE002)
* ``register_codec(Cls, tag, (field, ...))`` call sites with the
  registered class canonicalised and the field-tuple arity counted
  (WIRE001 codec coverage, WIRE002 codec arity)
* a function table with resolved call edges, bare method-call names,
  hashlib usage, and full-reduction ``sum`` sites -- the call graph's
  input  (FLT001)
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.config import LintConfig
from repro.lint.findings import Finding
from repro.lint.resolve import ImportResolver

__all__ = [
    "ClassFact",
    "FunctionFact",
    "ModuleFacts",
    "ProjectContext",
    "collect_facts",
]

_HANDLER_PREFIXES = ("handle_", "_handle")
_NAMEDTUPLE_BASES = frozenset({"typing.NamedTuple", "NamedTuple"})
_TUPLE_ANNOTATIONS = frozenset({"typing.Tuple", "Tuple", "tuple"})


@dataclass(frozen=True, slots=True)
class Site:
    """A bare source location (line, col, stripped source text)."""

    line: int
    col: int
    source: str


@dataclass(frozen=True, slots=True)
class CallSite:
    name: str
    line: int
    col: int
    source: str


@dataclass(frozen=True, slots=True)
class UnpackSite:
    """``for a, b, c in <expr>.attr`` (or the assignment equivalent)."""

    attr: str
    arity: int
    line: int
    col: int
    source: str


@dataclass(frozen=True, slots=True)
class SeqField:
    """A class field annotated as a homogeneous ``Tuple[elem, ...]``."""

    attr: str
    #: "name" (elem is a class reference) or "arity" (elem is a fixed
    #: ``Tuple[a, b, c]`` shape).
    kind: str
    #: canonical element class name, or the fixed arity as a string.
    value: str


@dataclass(frozen=True, slots=True)
class WireRegSite:
    """A ``register_codec(Cls, tag, (field, ...))`` call site."""

    cls: str
    #: length of the literal field tuple, or -1 when it is not a literal
    #: (arity then checked only at import time, not statically).
    field_count: int
    line: int
    col: int
    source: str


@dataclass(frozen=True, slots=True)
class SumSite:
    """A full (non-axis) ``numpy.sum``/``.sum()`` reduction call."""

    kind: str  # "numpy.sum" or "method.sum"
    line: int
    col: int
    source: str


@dataclass(frozen=True, slots=True)
class ClassFact:
    name: str
    line: int
    col: int
    source: str
    bases: Tuple[str, ...]
    methods: Tuple[str, ...]
    #: class-body names assigned a truthy constant (e.g. scalar_only = True)
    flags: Tuple[str, ...]
    #: number of annotated class-body fields (a NamedTuple's arity)
    field_count: int
    seq_fields: Tuple[SeqField, ...]

    @property
    def is_namedtuple(self) -> bool:
        return any(base in _NAMEDTUPLE_BASES for base in self.bases)


@dataclass(frozen=True, slots=True)
class FunctionFact:
    qualname: str
    name: str
    line: int
    calls: Tuple[str, ...]
    method_calls: Tuple[str, ...]
    uses_hashlib: bool
    sum_sites: Tuple[SumSite, ...]


@dataclass(slots=True)
class ModuleFacts:
    """Everything the project pass knows about one module."""

    module: str
    path: str
    classes: Tuple[ClassFact, ...] = ()
    functions: Tuple[FunctionFact, ...] = ()
    constructions: Tuple[CallSite, ...] = ()
    handler_checks: Tuple[str, ...] = ()
    unpacks: Tuple[UnpackSite, ...] = ()
    wire_regs: Tuple[WireRegSite, ...] = ()


def _is_handler_name(name: str) -> bool:
    return name == "handle" or name.startswith(_HANDLER_PREFIXES)


class _FactsCollector(ast.NodeVisitor):
    """One walk over a module tree, accumulating :class:`ModuleFacts`."""

    def __init__(
        self, tree: ast.Module, path: str, module: str, source: str
    ) -> None:
        self.module = module
        self.path = path
        self.resolver = ImportResolver(
            tree, module=module, is_package=path.endswith("__init__.py")
        )
        self.source_lines = source.splitlines()
        # Module-level prepass: names defined here (for canonicalising
        # bare references) and tuple constants (isinstance target tables).
        self.module_defs: Set[str] = set()
        self.const_tuples: Dict[str, Tuple[str, ...]] = {}
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.module_defs.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if not isinstance(target, ast.Name):
                        continue
                    self.module_defs.add(target.id)
                    if isinstance(stmt.value, ast.Tuple):
                        names = [self._canon(e) for e in stmt.value.elts]
                        if all(name is not None for name in names):
                            self.const_tuples[target.id] = tuple(names)  # type: ignore[arg-type]
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                self.module_defs.add(stmt.target.id)
        # Accumulators
        self.classes: List[ClassFact] = []
        self.functions: List[FunctionFact] = []
        self.constructions: List[CallSite] = []
        self.handler_checks: List[str] = []
        self.unpacks: List[UnpackSite] = []
        self.wire_regs: List[WireRegSite] = []
        # Scope state
        self._scope: List[str] = []
        self._func_stack: List[Dict[str, Any]] = [
            self._new_func("<module>", 1)
        ]
        self.visit(tree)
        self.functions.append(self._finish_func(self._func_stack.pop()))

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _new_func(qualname: str, line: int) -> Dict[str, Any]:
        return {
            "qualname": qualname,
            "name": qualname.rsplit(".", 1)[-1],
            "line": line,
            "calls": [],
            "method_calls": [],
            "uses_hashlib": False,
            "sum_sites": [],
        }

    @staticmethod
    def _finish_func(record: Dict[str, Any]) -> FunctionFact:
        return FunctionFact(
            qualname=record["qualname"],
            name=record["name"],
            line=record["line"],
            calls=tuple(dict.fromkeys(record["calls"])),
            method_calls=tuple(dict.fromkeys(record["method_calls"])),
            uses_hashlib=record["uses_hashlib"],
            sum_sites=tuple(record["sum_sites"]),
        )

    def _canon(self, node: ast.AST) -> Optional[str]:
        """Canonical name with same-module definitions fully qualified."""
        name = self.resolver.resolve(node)
        if name is not None and "." not in name and name in self.module_defs:
            return f"{self.module}.{name}"
        return name

    def _line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.source_lines):
            return self.source_lines[lineno - 1].strip()
        return ""

    def _site(self, node: ast.AST) -> Site:
        lineno = getattr(node, "lineno", 1)
        return Site(lineno, getattr(node, "col_offset", 0) + 1, self._line(lineno))

    # -- scopes --------------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        bases = tuple(
            name for name in (self._canon(base) for base in node.bases)
            if name is not None
        )
        methods: List[str] = []
        flags: List[str] = []
        field_count = 0
        seq_fields: List[SeqField] = []
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.append(stmt.name)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if (
                        isinstance(target, ast.Name)
                        and isinstance(stmt.value, ast.Constant)
                        and stmt.value.value
                    ):
                        flags.append(target.id)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                field_count += 1
                seq = self._seq_annotation(stmt.target.id, stmt.annotation)
                if seq is not None:
                    seq_fields.append(seq)
        site = self._site(node)
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()
        self.classes.append(
            ClassFact(
                name=node.name,
                line=site.line,
                col=site.col,
                source=site.source,
                bases=bases,
                methods=tuple(methods),
                flags=tuple(flags),
                field_count=field_count,
                seq_fields=tuple(seq_fields),
            )
        )

    def _seq_annotation(self, attr: str, ann: ast.AST) -> Optional[SeqField]:
        """Parse ``Tuple[elem, ...]`` annotations into a SeqField."""
        if not isinstance(ann, ast.Subscript):
            return None
        if self.resolver.resolve(ann.value) not in _TUPLE_ANNOTATIONS:
            return None
        inner = ann.slice
        if not (
            isinstance(inner, ast.Tuple)
            and len(inner.elts) == 2
            and isinstance(inner.elts[1], ast.Constant)
            and inner.elts[1].value is Ellipsis
        ):
            return None
        elem = inner.elts[0]
        if isinstance(elem, (ast.Name, ast.Attribute)):
            name = self._canon(elem)
            if name is not None:
                return SeqField(attr=attr, kind="name", value=name)
            return None
        if isinstance(elem, ast.Subscript) and self.resolver.resolve(
            elem.value
        ) in _TUPLE_ANNOTATIONS:
            shape = elem.slice
            if isinstance(shape, ast.Tuple) and not any(
                isinstance(e, ast.Constant) and e.value is Ellipsis
                for e in shape.elts
            ):
                return SeqField(
                    attr=attr, kind="arity", value=str(len(shape.elts))
                )
        return None

    def _visit_function(
        self, node: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> None:
        self._scope.append(node.name)
        qualname = ".".join(self._scope)
        self._func_stack.append(self._new_func(qualname, node.lineno))
        self.generic_visit(node)
        self.functions.append(self._finish_func(self._func_stack.pop()))
        self._scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    # -- fact extraction -----------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = self._func_stack[-1]
        name = self._canon(node.func)
        if name is not None:
            func["calls"].append(name)
            if name.startswith("hashlib."):
                func["uses_hashlib"] = True
            last = name.rsplit(".", 1)[-1].lstrip("_")
            if last[:1].isupper():
                site = self._site(node)
                self.constructions.append(
                    CallSite(name, site.line, site.col, site.source)
                )
            if name == "isinstance" and len(node.args) == 2:
                self._record_isinstance(node.args[1])
            if (
                name == "register_codec"
                or name.endswith(".register_codec")
            ) and node.args:
                self._record_wire_reg(node)
            if name == "numpy.sum" and self._is_full_reduction(node):
                site = self._site(node)
                func["sum_sites"].append(
                    SumSite("numpy.sum", site.line, site.col, site.source)
                )
        if isinstance(node.func, ast.Attribute):
            func["method_calls"].append(node.func.attr)
            if (
                node.func.attr == "sum"
                and name != "numpy.sum"
                and self._is_full_reduction(node)
            ):
                site = self._site(node)
                func["sum_sites"].append(
                    SumSite("method.sum", site.line, site.col, site.source)
                )
        self.generic_visit(node)

    @staticmethod
    def _is_full_reduction(node: ast.Call) -> bool:
        """True when a ``sum`` call collapses to a scalar (no axis)."""
        if len(node.args) > 1:
            return False  # positional axis argument
        return not any(keyword.arg == "axis" for keyword in node.keywords)

    def _record_wire_reg(self, node: ast.Call) -> None:
        cls = self._canon(node.args[0])
        if cls is None:
            return
        field_count = -1
        if len(node.args) >= 3 and isinstance(node.args[2], ast.Tuple):
            field_count = len(node.args[2].elts)
        site = self._site(node)
        self.wire_regs.append(
            WireRegSite(
                cls=cls,
                field_count=field_count,
                line=site.line,
                col=site.col,
                source=site.source,
            )
        )

    def _record_isinstance(self, target: ast.AST) -> None:
        if not self._func_stack or not _is_handler_name(
            self._func_stack[-1]["name"]
        ):
            return
        names: List[str] = []
        if isinstance(target, ast.Tuple):
            names.extend(
                name for name in (self._canon(e) for e in target.elts)
                if name is not None
            )
        elif isinstance(target, ast.Name) and target.id in self.const_tuples:
            names.extend(self.const_tuples[target.id])
        elif isinstance(target, ast.Attribute) and isinstance(
            target.value, ast.Name
        ) and target.value.id == "self":
            # isinstance(x, self._table): dispatch through an instance
            # attribute -- unresolvable statically, so nothing to record.
            pass
        else:
            name = self._canon(target)
            if name is not None:
                names.append(name)
        self.handler_checks.extend(names)

    def visit_Assign(self, node: ast.Assign) -> None:
        # a, b, c = <expr>.attr  (positional wire unpack)
        if len(node.targets) == 1:
            self._record_unpack(node.targets[0], node.value)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._record_unpack(node.target, node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for generator in getattr(node, "generators", ()):
            self._record_unpack(generator.target, generator.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def _record_unpack(self, target: ast.AST, source: ast.AST) -> None:
        if not isinstance(target, ast.Tuple) or not target.elts:
            return
        if not all(isinstance(e, ast.Name) for e in target.elts):
            return  # nested or starred targets: arity is not fixed
        if not isinstance(source, ast.Attribute):
            return  # only attribute-sourced sequences are wire payloads
        site = self._site(target)
        self.unpacks.append(
            UnpackSite(
                attr=source.attr,
                arity=len(target.elts),
                line=site.line,
                col=site.col,
                source=site.source,
            )
        )

    def facts(self) -> ModuleFacts:
        return ModuleFacts(
            module=self.module,
            path=self.path,
            classes=tuple(self.classes),
            functions=tuple(self.functions),
            constructions=tuple(self.constructions),
            handler_checks=tuple(dict.fromkeys(self.handler_checks)),
            unpacks=tuple(self.unpacks),
            wire_regs=tuple(self.wire_regs),
        )


def collect_facts(
    tree: ast.Module, path: str, module: str, source: str
) -> ModuleFacts:
    """Collect one module's :class:`ModuleFacts` from its parsed tree."""
    return _FactsCollector(tree, path, module, source).facts()


class ProjectContext:
    """The whole-program view handed to every project rule.

    Wraps the per-module fact records with the derived indexes the rules
    share: a canonical class table, transitive subclass closures, and the
    (lazily built) cross-module call graph.
    """

    def __init__(
        self, modules: Sequence[ModuleFacts], config: LintConfig
    ) -> None:
        self.modules: Tuple[ModuleFacts, ...] = tuple(modules)
        self.config = config
        self.findings: List[Finding] = []
        #: canonical class name -> (owning module facts, class fact)
        self.class_index: Dict[str, Tuple[ModuleFacts, ClassFact]] = {}
        for facts in self.modules:
            for cls in facts.classes:
                self.class_index.setdefault(
                    f"{facts.module}.{cls.name}", (facts, cls)
                )
        self._callgraph = None

    # -- emission ------------------------------------------------------------

    def emit(
        self,
        rule_id: str,
        facts: ModuleFacts,
        line: int,
        col: int,
        source: str,
        message: str,
    ) -> None:
        self.findings.append(
            Finding(
                rule=rule_id,
                path=facts.path,
                line=line,
                col=col,
                message=message,
                source=source,
            )
        )

    def emit_at(
        self, rule_id: str, facts: ModuleFacts, site: Any, message: str
    ) -> None:
        self.emit(rule_id, facts, site.line, site.col, site.source, message)

    # -- symbol table --------------------------------------------------------

    def ancestors(self, canonical: str) -> Set[str]:
        """Every (transitively) inherited base class name."""
        seen: Set[str] = set()
        frontier = [canonical]
        while frontier:
            entry = self.class_index.get(frontier.pop())
            if entry is None:
                continue
            for base in entry[1].bases:
                if base not in seen:
                    seen.add(base)
                    frontier.append(base)
        return seen

    def subclasses_of(self, base: str) -> Set[str]:
        """Canonical names of every transitive subclass of ``base``."""
        return {
            name
            for name in self.class_index
            if base in self.ancestors(name)
        }

    # -- call graph ----------------------------------------------------------

    @property
    def callgraph(self):
        if self._callgraph is None:
            from repro.lint.callgraph import CallGraph

            self._callgraph = CallGraph(self.modules)
        return self._callgraph
