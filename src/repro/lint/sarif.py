"""SARIF 2.1.0 reporter.

SARIF is the interchange format GitHub code scanning ingests
(``github/codeql-action/upload-sarif``), turning lint findings into
inline PR annotations.  Only what code scanning actually consumes is
emitted: one run, the full rule metadata table, and one
``result`` per finding with a physical location.  Pragma-suppressed
findings are included with a ``suppressions`` entry -- SARIF viewers
render them greyed-out rather than losing them -- while active findings
carry an empty ``suppressions`` list and level ``error``.

The serialisation is deterministic (sorted keys, findings in engine
order).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.lint.engine import LintResult
from repro.lint.findings import Finding
from repro.lint.rules import RULES

__all__ = ["SARIF_SCHEMA", "SARIF_VERSION", "render_sarif"]

SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
SARIF_VERSION = "2.1.0"

_DOCS_URI = "docs/LINT.md"


def _rule_metadata() -> List[Dict[str, Any]]:
    entries = []
    for rule in RULES:
        entries.append(
            {
                "id": rule.id,
                "shortDescription": {"text": rule.summary},
                "helpUri": _DOCS_URI,
                "defaultConfiguration": {"level": "error"},
            }
        )
    return entries


def _suppressions(finding: Finding) -> List[Dict[str, Any]]:
    if finding.suppressed:
        return [{"kind": "inSource", "justification": "padll pragma"}]
    return []


def _result(finding: Finding) -> Dict[str, Any]:
    return {
        "ruleId": finding.rule,
        "level": "error",
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path,
                        "uriBaseId": "%SRCROOT%",
                    },
                    "region": {
                        "startLine": finding.line,
                        "startColumn": max(finding.col, 1),
                    },
                }
            }
        ],
        "suppressions": _suppressions(finding),
    }


def render_sarif(result: LintResult) -> str:
    """Serialise a lint result as a SARIF 2.1.0 document."""
    doc: Dict[str, Any] = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "padll-lint",
                        "informationUri": _DOCS_URI,
                        "rules": _rule_metadata(),
                    }
                },
                "results": [
                    _result(finding) for finding in result.findings
                ],
                "invocations": [
                    {
                        "executionSuccessful": not result.parse_errors,
                        "toolExecutionNotifications": [
                            {
                                "level": "error",
                                "message": {"text": error},
                            }
                            for error in result.parse_errors
                        ],
                    }
                ],
            }
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)
