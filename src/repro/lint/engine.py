"""The lint engine: file discovery and the per-module scan.

Each file is parsed once and every AST node is dispatched to every
applicable rule.  Pragmas suppress findings, and nothing else does:
there is no baseline to grandfather a finding into.

File discovery stays sorted and deterministic: the linter itself must
obey its own DET003, and two runs over one tree render byte-identical
reports.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.lint.config import PATHS, LintConfig, module_for
from repro.lint.findings import Finding
from repro.lint.pragmas import scan_pragmas
from repro.lint.rules import RULES, LintContext

__all__ = [
    "LintResult",
    "iter_python_files",
    "lint_paths",
    "lint_source",
]


@dataclass(slots=True)
class LintResult:
    """Aggregated outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    parse_errors: List[str] = field(default_factory=list)

    @property
    def active(self) -> List[Finding]:
        """Findings that gate: everything no pragma suppressed."""
        return [finding for finding in self.findings if not finding.suppressed]

    @property
    def suppressed(self) -> List[Finding]:
        return [finding for finding in self.findings if finding.suppressed]

    @property
    def ok(self) -> bool:
        return not self.active and not self.parse_errors


def lint_source(source: str, path: str) -> Tuple[List[Finding], Optional[str]]:
    """Lint one module's text; returns (findings, parse_error)."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [], f"{path}:{exc.lineno or 0}: syntax error: {exc.msg}"
    ctx = LintContext(path, module_for(Path(path)), tree, source)
    active_rules = [rule for rule in RULES if rule.applies(ctx)]
    if active_rules:
        for node in ast.walk(tree):
            for rule in active_rules:
                rule.check(node, ctx)
    pragmas = scan_pragmas(source)
    findings = []
    for finding in sorted(ctx.findings, key=lambda f: (f.line, f.col, f.rule)):
        if pragmas.suppresses(finding.rule, finding.line):
            finding = Finding(**{**finding.to_dict(), "suppressed": True})
        findings.append(finding)
    return findings, None


def iter_python_files(paths: Iterable[Path]) -> List[Path]:
    """Deterministic (sorted) expansion of files/directories to .py files."""
    files: List[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            files.append(path)
        else:
            raise ConfigError(f"lint path does not exist: {path}")
    return list(dict.fromkeys(files))


def lint_paths(
    paths: Optional[Sequence[Path]] = None,
    config: Optional[LintConfig] = None,
) -> LintResult:
    """Lint files/directories (default: :data:`~repro.lint.config.PATHS`
    under the config's root)."""
    config = config if config is not None else LintConfig()
    if paths is None:
        paths = [config.resolve(entry) for entry in PATHS]
    result = LintResult()
    for file in iter_python_files(paths):
        try:
            source = file.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            result.parse_errors.append(f"{file}: unreadable: {exc}")
            continue
        findings, error = lint_source(source, _display_path(file, config))
        result.files_scanned += 1
        result.findings.extend(findings)
        if error is not None:
            result.parse_errors.append(error)
    return result


def _display_path(file: Path, config: LintConfig) -> str:
    """Config-root-relative path (stable across checkouts) when possible."""
    try:
        return file.resolve().relative_to(Path(config.root).resolve()).as_posix()
    except ValueError:
        return file.as_posix()
