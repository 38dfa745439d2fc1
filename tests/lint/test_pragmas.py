"""Pragma suppression behaviour: in-source ``# padll: allow(...)``."""

from __future__ import annotations

import textwrap

from repro.lint import lint_source
from repro.lint.pragmas import scan_pragmas

DET_PATH = "src/repro/simulation/mod.py"


def run_lint(code: str):
    findings, error = lint_source(textwrap.dedent(code), DET_PATH)
    assert error is None, error
    return findings


class TestPragmaSuppression:
    def test_same_line_pragma_suppresses(self):
        code = "import time\nt = time.time()  # padll: allow(DET001)\n"
        (finding,) = run_lint(code)
        assert finding.suppressed

    def test_line_above_pragma_suppresses(self):
        code = """
        import time
        # padll: allow(DET001)
        t = time.time()
        """
        (finding,) = run_lint(code)
        assert finding.suppressed

    def test_pragma_two_lines_above_does_not_suppress(self):
        code = """
        import time
        # padll: allow(DET001)
        x = 1
        t = time.time()
        """
        (finding,) = run_lint(code)
        assert not finding.suppressed

    def test_wrong_rule_does_not_suppress(self):
        code = "import time\nt = time.time()  # padll: allow(DET004)\n"
        (finding,) = run_lint(code)
        assert not finding.suppressed

    def test_multi_rule_pragma(self):
        code = (
            "import time\n"
            "t = (time.time(), id(t))  # padll: allow(DET001, DET004)\n"
        )
        findings = run_lint(code)
        assert len(findings) == 2
        assert all(f.suppressed for f in findings)

    def test_allow_file_suppresses_everywhere(self):
        code = """
        # padll: allow-file(DET001)
        import time

        def a():
            return time.time()

        def b():
            return time.perf_counter()
        """
        findings = run_lint(code)
        assert len(findings) == 2
        assert all(f.suppressed for f in findings)

    def test_allow_file_is_rule_specific(self):
        code = """
        # padll: allow-file(DET001)
        import time
        t = time.time()
        k = id(t)
        """
        by_rule = {f.rule: f.suppressed for f in run_lint(code)}
        assert by_rule == {"DET001": True, "DET004": False}

    def test_pragma_inside_string_is_ignored(self):
        code = (
            "import time\n"
            'doc = "# padll: allow(DET001)"\n'
            "t = time.time()\n"
        )
        (finding,) = run_lint(code)
        assert not finding.suppressed

    def test_suppressed_findings_do_not_gate(self):
        from repro.lint.engine import LintResult

        code = "import time\nt = time.time()  # padll: allow(DET001)\n"
        result = LintResult(findings=run_lint(code), files_scanned=1)
        assert result.ok
        assert len(result.suppressed) == 1


class TestScanPragmas:
    def test_empty_source(self):
        assert scan_pragmas("x = 1\n").empty

    def test_malformed_pragma_ignored(self):
        index = scan_pragmas("x = 1  # padll: allow(det1)\n")
        assert index.empty

    def test_unparseable_source_falls_back_to_line_scan(self):
        index = scan_pragmas("def broken(:  # padll: allow(DET001)\n")
        assert index.suppresses("DET001", 1)
