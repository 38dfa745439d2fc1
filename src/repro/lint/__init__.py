"""`padll-lint`: AST-based determinism & interposition static analysis.

The reproduction's headline guarantees -- bit-identical fixed-seed
fig4/fig5 outputs, SHA-256 content-addressed sweep caching, and
serial == parallel == cache-replay equivalence -- rest on source-level
*determinism invariants* that this package turns into machine-checked
lint rules:

=======  ========================================================
Rule     Invariant
=======  ========================================================
DET001   no wall-clock reads inside deterministic layers
DET002   no unseeded module-level ``random``/``numpy.random`` draws
DET003   no unordered iteration feeding ordering-sensitive output
DET004   no ``id()``/``hash()`` in cache-key or digest construction
DET005   no mutable default arguments in public APIs
INT001   interpose layer never calls a patchable entry point directly
=======  ========================================================

A second, *cross-module* pass builds a project-wide symbol table and
call graph (:mod:`repro.lint.project`, :mod:`repro.lint.callgraph`) and
enforces the wire-protocol and scalar/vector invariants no single
module can witness:

=======  ========================================================
Rule     Invariant
=======  ========================================================
WIRE001  every constructed RPC verb has a registered handler
WIRE002  positional wire-payload unpacks match declared arity
VEC001   ``allocate`` implies ``allocate_arrays`` (or scalar_only)
FLT001   digest-adjacent full reductions route through ``_seq_sum``
=======  ========================================================

Findings can be suppressed in place with ``# padll: allow(RULE)``
pragmas and in no other way.  The ``padll-repro lint`` subcommand (see
:mod:`repro.cli`) is the user-facing entry point; CI gates on it and
archives the JSON and SARIF reports.
"""

from repro.lint.config import DEFAULT_CONFIG, LintConfig, load_config
from repro.lint.findings import Finding
from repro.lint.engine import LintResult, lint_paths, lint_source
from repro.lint.project import ModuleFacts, ProjectContext, collect_facts
from repro.lint.project_rules import (
    PROJECT_RULES,
    ProjectRule,
    all_project_rule_ids,
)
from repro.lint.report import render_json, render_text
from repro.lint.rules import RULES, Rule, all_rule_ids
from repro.lint.sarif import render_sarif

__all__ = [
    "DEFAULT_CONFIG",
    "Finding",
    "LintConfig",
    "LintResult",
    "ModuleFacts",
    "PROJECT_RULES",
    "ProjectContext",
    "ProjectRule",
    "RULES",
    "Rule",
    "all_project_rule_ids",
    "all_rule_ids",
    "collect_facts",
    "lint_paths",
    "lint_source",
    "load_config",
    "render_json",
    "render_sarif",
    "render_text",
]
