"""Text and JSON reporters for lint results.

The text reporter is for humans at a terminal; the JSON reporter is the
machine surface CI archives as an artifact (schema documented in
docs/LINT.md, versioned so downstream tooling can gate on it).
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.lint.engine import LintResult
from repro.lint.rules import RULES

__all__ = ["REPORT_VERSION", "render_json", "render_text"]

#: v2: ``active_by_rule`` gained the cross-module WIRE/SHM/VEC/FLT ids.
#: v3: the baseline is gone -- no ``baselined`` field or count.
#: v4: WIRE003, SHM001 and SHM002 left the rule catalogue.
#: v5: WIRE001, WIRE002 and VEC001 left it too (tests/core/test_contracts.py
#: checks the registries they approximated); FLT001 is a per-module rule.
REPORT_VERSION = 5


def render_text(result: LintResult, verbose: bool = False) -> str:
    """Human-readable report: one line per active finding plus a summary."""
    lines = []
    for finding in result.active:
        lines.append(finding.render())
        if finding.source:
            lines.append(f"    {finding.source}")
    for error in result.parse_errors:
        lines.append(error)
    if verbose:
        for finding in result.suppressed:
            lines.append(f"{finding.render()} [suppressed by pragma]")
    lines.append(
        f"{len(result.active)} finding(s), {len(result.suppressed)} "
        f"suppressed, {len(result.parse_errors)} parse error(s) across "
        f"{result.files_scanned} file(s)"
    )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Deterministically-serialised machine report."""
    by_rule: Dict[str, int] = {rule.id: 0 for rule in RULES}
    for finding in result.active:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    doc: Dict[str, Any] = {
        "version": REPORT_VERSION,
        "ok": result.ok,
        "files_scanned": result.files_scanned,
        "counts": {
            "active": len(result.active),
            "suppressed": len(result.suppressed),
            "parse_errors": len(result.parse_errors),
        },
        "active_by_rule": by_rule,
        "findings": [finding.to_dict() for finding in result.findings],
        "parse_errors": list(result.parse_errors),
    }
    return json.dumps(doc, indent=2, sort_keys=True)
