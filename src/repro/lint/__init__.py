"""`padll-lint`: AST-based determinism & interposition static analysis.

The reproduction's headline guarantees -- bit-identical fixed-seed
fig4/fig5 outputs, SHA-256 content-addressed sweep caching, and
serial == parallel == cache-replay equivalence -- rest on source-level
*determinism invariants* that this package turns into machine-checked
lint rules, each checked one module at a time:

=======  ========================================================
Rule     Invariant
=======  ========================================================
DET001   no wall-clock reads inside deterministic layers
DET002   no unseeded module-level ``random``/``numpy.random`` draws
DET003   no unordered iteration feeding ordering-sensitive output
DET004   no ``id()``/``hash()`` in cache-key or digest construction
DET005   no mutable default arguments in public APIs
DET006   no telemetry emit with a missing or computed timestamp
INT001   interpose layer never calls a patchable entry point directly
FLT001   full ``np.sum``/``np.add.reduce``/``.sum()`` reductions in
         deterministic layers route through ``_seq_sum`` or carry a pragma
=======  ========================================================

The control plane's registry contracts -- every RPC verb has a codec
and a handler, every codec matches its class, every allocator defines
``allocate_arrays`` -- are not
lint rules: ``tests/core/test_contracts.py`` reads the registries
themselves.

Findings can be suppressed in place with ``# padll: allow(RULE)``
pragmas and in no other way.  The ``padll-repro lint`` subcommand (see
:mod:`repro.cli`) is the user-facing entry point; CI gates on it and
archives the JSON and SARIF reports.
"""

from repro.lint.config import LintConfig, load_config
from repro.lint.findings import Finding
from repro.lint.engine import LintResult, lint_paths, lint_source
from repro.lint.report import render_json, render_text
from repro.lint.rules import RULES, Rule
from repro.lint.sarif import render_sarif

__all__ = [
    "Finding",
    "LintConfig",
    "LintResult",
    "RULES",
    "Rule",
    "lint_paths",
    "lint_source",
    "load_config",
    "render_json",
    "render_sarif",
    "render_text",
]
