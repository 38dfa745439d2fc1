"""The rule registry: the determinism, interposition and reduction rules.

Every rule sees every AST node of every scanned module exactly once,
with the module's :class:`~repro.lint.resolve.ImportResolver` and a
parent map available through the :class:`LintContext`.  Rules match on
canonical dotted names, so aliased imports cannot dodge them.

Rule ids are stable API: pragmas and CI reference them.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

from repro.lint.config import DETERMINISTIC_LAYERS, INTERPOSE_LAYERS, in_layer
from repro.lint.findings import Finding
from repro.lint.resolve import ImportResolver

__all__ = ["LintContext", "Rule", "RULES"]


class LintContext:
    """Per-module state shared by every rule during one scan."""

    def __init__(
        self,
        path: str,
        module: str,
        tree: ast.AST,
        source: str,
    ) -> None:
        self.path = path
        self.module = module
        self.tree = tree
        self.resolver = ImportResolver(
            tree, module=module, is_package=path.endswith("__init__.py")
        )
        self.source_lines = source.splitlines()
        self.findings: List[Finding] = []
        # Built lazily on the first parent() call: most rules never ask
        # for parents, and the full ast.walk to build the map costs more
        # than the rule dispatch itself on large modules (docs/LINT.md
        # has the measurement).
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        if self._parents is None:
            self._parents = {}
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    self._parents[child] = parent
        return self._parents.get(node)

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.source_lines):
            return self.source_lines[lineno - 1].strip()
        return ""

    def in_deterministic_layer(self) -> bool:
        return in_layer(self.module, DETERMINISTIC_LAYERS)

    def in_interpose_layer(self) -> bool:
        return in_layer(self.module, INTERPOSE_LAYERS)

    def emit(self, rule_id: str, node: ast.AST, message: str) -> None:
        lineno = getattr(node, "lineno", 1)
        self.findings.append(
            Finding(
                rule=rule_id,
                path=self.path,
                line=lineno,
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
                source=self.source_line(lineno),
            )
        )

    def wrapped_in(self, node: ast.AST, func_name: str) -> bool:
        """True when ``node`` is a direct argument of a ``func_name(...)`` call."""
        parent = self.parent(node)
        return (
            isinstance(parent, ast.Call)
            and node in parent.args
            and self.resolver.resolve_call(parent) == func_name
        )


class Rule:
    """Base rule: subclasses set ``id``/``summary`` and override hooks."""

    id: str = ""
    summary: str = ""

    def applies(self, ctx: LintContext) -> bool:
        return True

    def check(self, node: ast.AST, ctx: LintContext) -> None:
        raise NotImplementedError


# --------------------------------------------------------------------------
# DET001 -- wall-clock reads inside deterministic layers
# --------------------------------------------------------------------------

_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.thread_time",
        "time.clock_gettime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


class WallClockRule(Rule):
    id = "DET001"
    summary = "wall-clock read inside a deterministic layer"

    def applies(self, ctx: LintContext) -> bool:
        return ctx.in_deterministic_layer()

    def check(self, node: ast.AST, ctx: LintContext) -> None:
        if not isinstance(node, ast.Call):
            return
        for name in ctx.resolver.resolve_call_candidates(node):
            if name in _WALL_CLOCK_CALLS:
                ctx.emit(
                    self.id,
                    node,
                    f"wall-clock call {name}() in deterministic layer "
                    f"{ctx.module}; simulated time must come from the engine "
                    f"(env.now) -- wall-clock values poison golden digests "
                    f"and cache keys",
                )
                return


# --------------------------------------------------------------------------
# DET002 -- unseeded module-level random draws
# --------------------------------------------------------------------------

_STDLIB_RANDOM_DRAWS = frozenset(
    f"random.{fn}"
    for fn in (
        "random",
        "randint",
        "randrange",
        "randbytes",
        "getrandbits",
        "uniform",
        "triangular",
        "choice",
        "choices",
        "sample",
        "shuffle",
        "seed",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "expovariate",
        "vonmisesvariate",
        "gammavariate",
        "betavariate",
        "paretovariate",
        "weibullvariate",
        "binomialvariate",
    )
)

#: numpy.random attributes that are *constructors* for explicit, seedable
#: generator plumbing rather than draws from the hidden global RandomState.
_NUMPY_RANDOM_ALLOWED = frozenset(
    {
        "Generator",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
        "SeedSequence",
        "default_rng",
    }
)


class UnseededRandomRule(Rule):
    id = "DET002"
    summary = "unseeded module-level random draw"

    def check(self, node: ast.AST, ctx: LintContext) -> None:
        if not isinstance(node, ast.Call):
            return
        for name in ctx.resolver.resolve_call_candidates(node):
            message = self._violation(name, node)
            if message is not None:
                ctx.emit(self.id, node, message)
                return

    @staticmethod
    def _violation(name: str, node: ast.Call) -> Optional[str]:
        if name in _STDLIB_RANDOM_DRAWS:
            return (
                f"module-level {name}() draws from the hidden global RNG; "
                f"thread an explicit seeded Generator from "
                f"repro.simulation.rng instead"
            )
        if name == "random.Random" and not node.args and not node.keywords:
            return (
                "random.Random() without a seed is OS-entropy-seeded; pass "
                "an explicit seed"
            )
        if name.startswith("numpy.random."):
            attr = name[len("numpy.random.") :]
            if "." in attr:  # e.g. numpy.random.Generator.integers -- method
                return None  # on an explicit generator object, fine
            if attr == "default_rng":
                if not node.args and not node.keywords:
                    return (
                        "numpy.random.default_rng() without a seed is "
                        "OS-entropy-seeded; use repro.simulation.rng.make_rng"
                        "(seed) or pass a SeedSequence"
                    )
            elif attr not in _NUMPY_RANDOM_ALLOWED:
                return (
                    f"{name}() draws from numpy's hidden global RandomState; "
                    f"thread an explicit Generator "
                    f"(repro.simulation.rng.make_rng)"
                )
        return None


# --------------------------------------------------------------------------
# DET003 -- unordered iteration feeding ordering-sensitive output
# --------------------------------------------------------------------------

_UNORDERED_FS_CALLS = frozenset(
    {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
)
_UNORDERED_FS_METHODS = frozenset({"glob", "rglob", "iterdir", "scandir"})
_ORDERED_LITERALS = (
    ast.Dict,
    ast.List,
    ast.ListComp,
    ast.Tuple,
    ast.Constant,
)


class UnorderedIterationRule(Rule):
    id = "DET003"
    summary = "unordered iteration feeding ordering-sensitive output"

    def check(self, node: ast.AST, ctx: LintContext) -> None:
        if isinstance(node, ast.Call):
            self._check_fs_call(node, ctx)
            self._check_json_dump(node, ctx)
        elif isinstance(node, ast.For):
            self._check_iterable(node.iter, ctx)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for generator in node.generators:
                self._check_iterable(generator.iter, ctx)

    def _check_fs_call(self, node: ast.Call, ctx: LintContext) -> None:
        name = ctx.resolver.resolve_call(node)
        if name in _UNORDERED_FS_CALLS and not ctx.wrapped_in(node, "sorted"):
            ctx.emit(
                self.id,
                node,
                f"{name}() returns entries in filesystem order; wrap in "
                f"sorted(...) before the result can reach digests, cache "
                f"keys, or reports",
            )

    def _check_iterable(self, iterable: ast.AST, ctx: LintContext) -> None:
        # for x in {...} / set(...) / frozenset(...): iteration order is
        # hash-dependent (and salted across processes for str keys).
        if isinstance(iterable, (ast.Set, ast.SetComp)):
            ctx.emit(
                self.id,
                iterable,
                "iterating a set literal: order is hash-salted across "
                "processes; iterate sorted(...) or a tuple",
            )
            return
        if isinstance(iterable, ast.Call):
            name = ctx.resolver.resolve_call(iterable)
            if name in ("set", "frozenset"):
                ctx.emit(
                    self.id,
                    iterable,
                    f"iterating {name}(...): order is hash-salted across "
                    f"processes; iterate sorted(...) instead",
                )
            elif (
                name not in _UNORDERED_FS_CALLS  # those flag in _check_fs_call
                and isinstance(iterable.func, ast.Attribute)
                and iterable.func.attr in _UNORDERED_FS_METHODS
            ):
                ctx.emit(
                    self.id,
                    iterable,
                    f".{iterable.func.attr}() yields entries in filesystem "
                    f"order; iterate sorted(...) for a deterministic walk",
                )

    def _check_json_dump(self, node: ast.Call, ctx: LintContext) -> None:
        if not ctx.in_deterministic_layer():
            return
        name = ctx.resolver.resolve_call(node)
        if name not in ("json.dumps", "json.dump"):
            return
        for keyword in node.keywords:
            if keyword.arg == "sort_keys":
                return  # explicit either way: author thought about ordering
        if node.args and isinstance(node.args[0], _ORDERED_LITERALS):
            return  # literal payload: key order is the written order
        ctx.emit(
            self.id,
            node,
            f"{name}(...) without sort_keys=True in a deterministic layer: "
            f"key order follows dict construction history, which is fragile "
            f"for digests and cache keys",
        )


# --------------------------------------------------------------------------
# DET004 -- process-specific identity in key/digest construction
# --------------------------------------------------------------------------


class IdentityKeyRule(Rule):
    id = "DET004"
    summary = "id()/hash() used where content addressing is required"

    def applies(self, ctx: LintContext) -> bool:
        return ctx.in_deterministic_layer()

    def check(self, node: ast.AST, ctx: LintContext) -> None:
        if not isinstance(node, ast.Call):
            return
        name = ctx.resolver.resolve_call(node)
        if name == "id":
            ctx.emit(
                self.id,
                node,
                "id() is a process-local address: it changes run to run, so "
                "it must never reach a cache key, digest, or result; derive "
                "a content key instead",
            )
        elif name == "hash":
            ctx.emit(
                self.id,
                node,
                "builtin hash() is salted per process (PYTHONHASHSEED); use "
                "hashlib over canonical bytes for any persisted key",
            )


# --------------------------------------------------------------------------
# DET005 -- mutable default arguments in public APIs
# --------------------------------------------------------------------------

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_CONSTRUCTORS = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "collections.defaultdict",
        "collections.deque",
        "collections.OrderedDict",
        "collections.Counter",
    }
)


class MutableDefaultRule(Rule):
    id = "DET005"
    summary = "mutable default argument in a public API"

    def check(self, node: ast.AST, ctx: LintContext) -> None:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        if node.name.startswith("_"):
            return
        defaults = list(node.args.defaults) + [
            default for default in node.args.kw_defaults if default is not None
        ]
        for default in defaults:
            if isinstance(default, _MUTABLE_LITERALS):
                kind = type(default).__name__
            elif (
                isinstance(default, ast.Call)
                and ctx.resolver.resolve_call(default) in _MUTABLE_CONSTRUCTORS
            ):
                kind = ctx.resolver.resolve_call(default)
            else:
                continue
            ctx.emit(
                self.id,
                default,
                f"mutable default ({kind}) in public function "
                f"{node.name}(): shared across calls, so state leaks "
                f"between runs; default to None and create inside",
            )


# --------------------------------------------------------------------------
# DET006 -- telemetry emits computing their own timestamps
# --------------------------------------------------------------------------

#: Telemetry emit surface -> (positional index, keyword name) of every
#: timestamp parameter.  Matches repro.telemetry's Tracer.emit_span /
#: Tracer.emit_point / EventLog.emit signatures.
_TELEMETRY_EMIT_SLOTS: Dict[str, Tuple[Tuple[int, str], ...]] = {
    "emit": ((1, "now"),),
    "emit_point": ((2, "now"),),
    "emit_span": ((2, "start"), (3, "end")),
}


class TelemetryClockRule(Rule):
    id = "DET006"
    summary = "telemetry emit with a missing or computed timestamp"

    def applies(self, ctx: LintContext) -> bool:
        return ctx.in_deterministic_layer()

    def check(self, node: ast.AST, ctx: LintContext) -> None:
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            return
        slots = _TELEMETRY_EMIT_SLOTS.get(node.func.attr)
        if slots is None:
            return
        for index, kw_name in slots:
            expr: Optional[ast.AST] = (
                node.args[index] if index < len(node.args) else None
            )
            if expr is None:
                for keyword in node.keywords:
                    if keyword.arg == kw_name:
                        expr = keyword.value
                        break
            if expr is None:
                ctx.emit(
                    self.id,
                    node,
                    f".{node.func.attr}() without an explicit {kw_name!r} "
                    f"timestamp in a deterministic layer; pass the caller's "
                    f"sim-clock value so telemetry never invents time",
                )
            elif isinstance(expr, ast.Call):
                ctx.emit(
                    self.id,
                    expr,
                    f".{node.func.attr}() computes its {kw_name!r} timestamp "
                    f"inline; in a deterministic layer telemetry must be "
                    f"stamped from the simulation clock the caller already "
                    f"holds (env.now / the tick's now), never a fresh call",
                )


# --------------------------------------------------------------------------
# INT001 -- interpose layer calling a patchable entry point directly
# --------------------------------------------------------------------------

#: The os-module surface Interposer patches (path, fd, and open tables) --
#: keep in sync with repro.interpose.monkeypatch; the self-check test
#: asserts this superset relationship.
PATCHED_OS_NAMES = frozenset(
    {
        "stat",
        "lstat",
        "chmod",
        "chown",
        "truncate",
        "unlink",
        "remove",
        "link",
        "symlink",
        "readlink",
        "rename",
        "replace",
        "mkdir",
        "rmdir",
        "listdir",
        "scandir",
        "statvfs",
        "utime",
        "getxattr",
        "setxattr",
        "listxattr",
        "removexattr",
        "open",
        "close",
        "fstat",
        "fchmod",
        "ftruncate",
        "fsync",
        "read",
        "write",
    }
)


class InterposeReentryRule(Rule):
    id = "INT001"
    summary = "interpose layer calls a patchable entry point"

    def applies(self, ctx: LintContext) -> bool:
        return ctx.in_interpose_layer()

    def check(self, node: ast.AST, ctx: LintContext) -> None:
        if not isinstance(node, ast.Call):
            return
        flagged = None
        for name in ctx.resolver.resolve_call_candidates(node):
            if name in ("open", "io.open", "builtins.open"):
                flagged = name
            elif name.startswith("os.") and name[3:] in PATCHED_OS_NAMES:
                flagged = name
            if flagged is not None:
                break
        if flagged is not None:
            ctx.emit(
                self.id,
                node,
                f"direct {flagged}() call inside the interpose layer: once "
                f"the Interposer is installed this re-enters the patched "
                f"wrapper (double-throttling or deadlock under load); route "
                f"through the saved originals",
            )


# --------------------------------------------------------------------------
# FLT001 -- full float reductions in deterministic layers
# --------------------------------------------------------------------------


class FullReductionRule(Rule):
    id = "FLT001"
    summary = "full np.sum/np.add.reduce/.sum() reduction in a deterministic layer"

    def applies(self, ctx: LintContext) -> bool:
        return ctx.in_deterministic_layer()

    def check(self, node: ast.AST, ctx: LintContext) -> None:
        # ``np.sum(x, 0)`` or ``axis=`` is an axis-wise reduction, which
        # does not fold to one scalar.
        if not isinstance(node, ast.Call) or len(node.args) > 1:
            return
        if any(keyword.arg == "axis" for keyword in node.keywords):
            return
        name = ctx.resolver.resolve_call(node)
        if name == "numpy.sum":
            kind = "np.sum()"
        elif name == "numpy.add.reduce":
            kind = "np.add.reduce()"
        elif isinstance(node.func, ast.Attribute) and node.func.attr == "sum":
            kind = ".sum()"
        else:
            return
        ctx.emit(
            self.id,
            node,
            f"full {kind} reduction in deterministic layer {ctx.module}: "
            f"numpy's pairwise summation order depends on the array's "
            f"length, so a reshaped input changes the bits every digest "
            f"downstream folds in; route through _seq_sum or justify the "
            f"shape with a pragma",
        )


RULES: Tuple[Rule, ...] = (
    WallClockRule(),
    UnseededRandomRule(),
    UnorderedIterationRule(),
    IdentityKeyRule(),
    MutableDefaultRule(),
    TelemetryClockRule(),
    InterposeReentryRule(),
    FullReductionRule(),
)
