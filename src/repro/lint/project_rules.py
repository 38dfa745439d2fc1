"""Cross-module project rules (WIRE, VEC, FLT families).

These run in the engine's second pass, after every module's
:class:`~repro.lint.project.ModuleFacts` has been collected, and see the
whole program through a :class:`~repro.lint.project.ProjectContext`.
They guard the invariants that no single module can witness:

* **WIRE001** -- every constructed RPC verb (transitive subclass of
  ``repro.core.rpc.RpcMessage``) is isinstance-dispatched by some
  ``handle*`` function somewhere in the project, *and* carries a
  ``register_codec`` registration so it can cross a socket framed
  (a verb that only ever rode the in-proc transport would otherwise
  explode the first time a deployment goes multi-process).
* **WIRE002** -- positional tuple-unpacks of wire sequence payloads
  (``Tuple[SomeNamedTuple, ...]`` / ``Tuple[Tuple[a, b, c], ...]``
  class fields) match the declared arity, and every verb's
  ``register_codec`` field tuple matches the verb dataclass's own
  field count (codec drift caught without importing the module).
* **VEC001** -- an ``AllocationAlgorithm`` subclass that defines
  ``allocate`` must also define ``allocate_arrays`` or carry a
  class-body ``scalar_only = True`` registration, keeping the
  hierarchy's vectorised control tier honest as policies grow.
* **FLT001** -- full (non-axis) ``np.sum``/``.sum()`` reductions in
  deterministic layers that share a call chain with a digest
  (hashlib-consuming) function must route through ``_seq_sum`` or
  carry a justification pragma: numpy's pairwise summation order is a
  documented digest hazard.

Every rule emits at a concrete source site, so the standard pragma
(``# padll: allow(WIRE001)``) and baseline machinery apply unchanged.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.lint.project import ModuleFacts, ProjectContext

__all__ = [
    "PROJECT_RULES",
    "ProjectRule",
    "all_project_rule_ids",
]

RPC_MESSAGE_BASE = "repro.core.rpc.RpcMessage"
ALGORITHM_BASE = "repro.core.algorithms.AllocationAlgorithm"


class ProjectRule:
    """A cross-module rule: sees every module's facts at once."""

    id: str = ""
    summary: str = ""

    def check_project(self, project: ProjectContext) -> None:
        raise NotImplementedError


class UnhandledVerbRule(ProjectRule):
    """WIRE001: every constructed RPC verb has a handler and a codec."""

    id = "WIRE001"
    summary = (
        "RPC verb is constructed but lacks a handle* dispatcher "
        "or a register_codec registration"
    )

    def check_project(self, project: ProjectContext) -> None:
        verbs = project.subclasses_of(RPC_MESSAGE_BASE)
        if not verbs:
            return
        checked: Set[str] = set()
        registered: Set[str] = set()
        for facts in project.modules:
            checked.update(facts.handler_checks)
            registered.update(reg.cls for reg in facts.wire_regs)

        def handled(verb: str) -> bool:
            if verb in checked:
                return True
            # A dispatcher matching a base class handles every subclass.
            return bool(project.ancestors(verb) & checked)

        # Codec coverage is per concrete class: decode reconstructs via
        # ``cls(*fields)``, so a base-class registration cannot stand in
        # for a subclass the way a base-class isinstance check can.
        for facts in project.modules:
            for site in facts.constructions:
                if site.name not in verbs:
                    continue
                short = site.name.rsplit(".", 1)[-1]
                if not handled(site.name):
                    project.emit_at(
                        self.id,
                        facts,
                        site,
                        f"RPC verb {short} is "
                        "constructed here but no handle* dispatcher "
                        "isinstance-checks it (or a base class) anywhere "
                        "in the project; register a handler on the "
                        "receiving endpoint",
                    )
                if site.name not in registered:
                    project.emit_at(
                        self.id,
                        facts,
                        site,
                        f"RPC verb {short} is constructed here but has "
                        "no register_codec registration anywhere in the "
                        "project, so it cannot cross a framed (socket) "
                        "transport; register it in repro.core.wire",
                    )


class WireArityRule(ProjectRule):
    """WIRE002: positional unpacks of wire payloads match declared arity."""

    id = "WIRE002"
    summary = (
        "positional unpack arity does not match the wire payload's "
        "declared element shape"
    )

    def check_project(self, project: ProjectContext) -> None:
        # attr name -> set of declared element arities, from every
        # ``attr: Tuple[Elem, ...]`` class field in the project.
        arities: Dict[str, Set[int]] = {}
        for facts in project.modules:
            for cls in facts.classes:
                for seq in cls.seq_fields:
                    if seq.kind == "arity":
                        arities.setdefault(seq.attr, set()).add(int(seq.value))
                    else:
                        entry = project.class_index.get(seq.value)
                        if entry is not None and entry[1].is_namedtuple:
                            arities.setdefault(seq.attr, set()).add(
                                entry[1].field_count
                            )
        for facts in project.modules:
            for site in facts.unpacks:
                declared = arities.get(site.attr)
                if declared and site.arity not in declared:
                    want = ", ".join(str(n) for n in sorted(declared))
                    project.emit_at(
                        self.id,
                        facts,
                        site,
                        f"positional unpack of .{site.attr} binds "
                        f"{site.arity} names but the wire payload "
                        f"declares {want}-field elements; unpack every "
                        "field (or index explicitly) so arity drift "
                        "fails loudly",
                    )
        self._check_codec_arity(project)

    def _check_codec_arity(self, project: ProjectContext) -> None:
        """Codec field tuples must match the verb's own field count.

        Restricted to RpcMessage subclasses: verbs are plain all-init
        dataclasses, so the class-body annotation count *is* the
        constructor arity.  Carrier types registered alongside them
        (e.g. ClassifierRule) may hold ``init=False`` fields the static
        count cannot see -- import-time validation in ``register_codec``
        still covers those.
        """
        verbs = project.subclasses_of(RPC_MESSAGE_BASE)
        for facts in project.modules:
            for reg in facts.wire_regs:
                if reg.cls not in verbs or reg.field_count < 0:
                    continue
                entry = project.class_index.get(reg.cls)
                if entry is None:
                    continue
                declared = entry[1].field_count
                if reg.field_count != declared:
                    short = reg.cls.rsplit(".", 1)[-1]
                    project.emit_at(
                        self.id,
                        facts,
                        reg,
                        f"register_codec for verb {short} lists "
                        f"{reg.field_count} field(s) but the dataclass "
                        f"declares {declared}; the decode side calls "
                        f"{short}(*fields), so the tuples must match "
                        "exactly",
                    )


class ScalarVectorParityRule(ProjectRule):
    """VEC001: allocate implies allocate_arrays (or scalar_only opt-out)."""

    id = "VEC001"
    summary = (
        "Algorithm subclass defines allocate without allocate_arrays "
        "or a scalar_only registration"
    )

    def check_project(self, project: ProjectContext) -> None:
        for name in sorted(project.subclasses_of(ALGORITHM_BASE)):
            facts, cls = project.class_index[name]
            if "allocate" not in cls.methods:
                continue
            if "allocate_arrays" in cls.methods:
                continue
            if "scalar_only" in cls.flags:
                continue
            project.emit(
                self.id,
                facts,
                cls.line,
                cls.col,
                cls.source,
                f"{cls.name} defines allocate but not allocate_arrays; "
                "the hierarchy's vectorised control tier will silently fall "
                "back to the scalar path -- implement allocate_arrays or declare "
                "`scalar_only = True` in the class body",
            )


class DigestSumRule(ProjectRule):
    """FLT001: digest-adjacent full reductions must use _seq_sum."""

    id = "FLT001"
    summary = (
        "full np.sum/.sum() reduction in a deterministic layer on a "
        "digest-feeding call chain"
    )

    def check_project(self, project: ProjectContext) -> None:
        graph = project.callgraph
        # Digest sinks: functions that hash, or are named like digests.
        sinks = [
            node
            for node, (_, func) in graph.nodes.items()
            if func.uses_hashlib
            or func.name == "digest"
            or func.name.endswith("_digest")
        ]
        if not sinks:
            return
        # "Feeds a digest path" is over-approximated as sharing a call
        # chain with a sink: every function that can reach a sink
        # (reverse closure -- the computations that end in hashing),
        # plus everything those computations call (forward closure --
        # the values they fold into the hash).  Both hops are
        # conservative by design; the pragma carries the justification
        # when a site is provably order-stable.
        producers = graph.reverse_reachable(sinks)
        region = graph.reachable(producers)
        for node in sorted(region):
            facts, func = graph.nodes[node]
            if not func.sum_sites:
                continue
            if not project.config.in_layer(
                facts.module, project.config.deterministic_layers
            ):
                continue
            for site in func.sum_sites:
                project.emit_at(
                    self.id,
                    facts,
                    site,
                    f"full {site.kind} reduction in deterministic layer "
                    f"{facts.module} on a digest-feeding call chain; "
                    "numpy pairwise summation order is shape-dependent "
                    "-- route through _seq_sum or pragma with a "
                    "justification",
                )


PROJECT_RULES: Tuple[ProjectRule, ...] = (
    UnhandledVerbRule(),
    WireArityRule(),
    ScalarVectorParityRule(),
    DigestSumRule(),
)


def all_project_rule_ids() -> Tuple[str, ...]:
    return tuple(rule.id for rule in PROJECT_RULES)
