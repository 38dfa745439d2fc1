"""SARIF 2.1.0 reporter shape and determinism."""

import json
from pathlib import Path

from repro.lint import (
    RULES,
    LintConfig,
    lint_paths,
    render_sarif,
)

DIRTY = (
    "import time\n"
    "\n"
    "\n"
    "def tick():\n"
    "    return time.time()\n"
)
PRAGMAED = DIRTY.replace("time.time()", "time.time()  # padll: allow(DET001)")


def _result(tmp_path: Path):
    for relative, source in {
        "src/repro/simulation/dirty.py": DIRTY,
        "src/repro/simulation/pragmaed.py": PRAGMAED,
    }.items():
        target = tmp_path / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
    return lint_paths([tmp_path / "src"], LintConfig(root=str(tmp_path)))


def test_sarif_document_shape(tmp_path):
    doc = json.loads(render_sarif(_result(tmp_path)))
    assert doc["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in doc["$schema"]
    (run,) = doc["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "padll-lint"
    # Every rule is advertised in the metadata table.
    assert [rule["id"] for rule in driver["rules"]] == [r.id for r in RULES]


def test_results_carry_locations_and_suppressions(tmp_path):
    doc = json.loads(render_sarif(_result(tmp_path)))
    results = doc["runs"][0]["results"]
    assert len(results) == 2  # active + pragma-suppressed
    by_uri = {
        r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]: r
        for r in results
    }
    active = by_uri["src/repro/simulation/dirty.py"]
    suppressed = by_uri["src/repro/simulation/pragmaed.py"]
    assert active["ruleId"] == "DET001"
    assert active["suppressions"] == []
    region = active["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 5
    assert region["startColumn"] >= 1
    assert suppressed["suppressions"][0]["kind"] == "inSource"


def test_rendering_is_deterministic(tmp_path):
    result = _result(tmp_path)
    assert render_sarif(result) == render_sarif(result)


def test_parse_errors_surface_as_notifications(tmp_path):
    target = tmp_path / "src/repro/simulation/broken.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text("def oops(:\n", encoding="utf-8")
    result = lint_paths([tmp_path / "src"], LintConfig(root=str(tmp_path)))
    doc = json.loads(render_sarif(result))
    invocation = doc["runs"][0]["invocations"][0]
    assert invocation["executionSuccessful"] is False
    assert invocation["toolExecutionNotifications"]
