"""The lint engine: discovery, per-module scan, cross-module pass.

The engine runs in two passes.  **Pass one** is per-module: each file is
parsed once, every AST node is dispatched to every applicable per-module
rule, and a :class:`~repro.lint.project.ModuleFacts` record is collected
in the same walk-adjacent pipeline.  **Pass two** is cross-module: every
module's facts are combined into one
:class:`~repro.lint.project.ProjectContext` and handed to the
:data:`~repro.lint.project_rules.PROJECT_RULES` (WIRE/VEC/FLT).
Pragmas suppress findings from both passes identically, and nothing
else does: there is no baseline to grandfather a finding into.

File discovery stays sorted and deterministic: the linter itself must
obey its own DET003, and two runs over one tree render byte-identical
reports.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.lint.config import LintConfig
from repro.lint.findings import Finding
from repro.lint.pragmas import PragmaIndex, scan_pragmas
from repro.lint.project import ModuleFacts, ProjectContext, collect_facts
from repro.lint.project_rules import PROJECT_RULES, ProjectRule, all_project_rule_ids
from repro.lint.rules import RULES, LintContext, Rule

__all__ = [
    "LintResult",
    "ModuleRecord",
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


@dataclass(slots=True)
class ModuleRecord:
    """Everything pass one produced for one file."""

    display_path: str
    findings: List[Finding]
    facts: Optional[ModuleFacts]
    pragmas: PragmaIndex
    parse_error: Optional[str] = None


def _select_rules(config: LintConfig, rules: Sequence[Rule]) -> List[Rule]:
    disabled = set(config.disable)
    known = (
        {rule.id for rule in rules}
        | {rule.id for rule in RULES}
        | set(all_project_rule_ids())
    )
    unknown = disabled - known
    if unknown:
        raise ConfigError(f"disable lists unknown rule ids: {sorted(unknown)}")
    return [rule for rule in rules if rule.id not in disabled]


def _select_project_rules(
    config: LintConfig, project_rules: Sequence[ProjectRule]
) -> List[ProjectRule]:
    disabled = set(config.disable)
    return [rule for rule in project_rules if rule.id not in disabled]


def _scan_module(
    source: str,
    path: str,
    config: LintConfig,
    rules: Sequence[Rule],
    collect: bool,
) -> ModuleRecord:
    """Pass one for a single module: rules + pragmas (+ facts)."""
    pragmas = scan_pragmas(source)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return ModuleRecord(
            display_path=path,
            findings=[],
            facts=None,
            pragmas=pragmas,
            parse_error=f"{path}:{exc.lineno or 0}: syntax error: {exc.msg}",
        )
    module = config.module_for(Path(path))
    ctx = LintContext(path, module, tree, source, config)
    active_rules = [
        rule for rule in _select_rules(config, rules) if rule.applies(ctx)
    ]
    if active_rules:
        for node in ast.walk(tree):
            for rule in active_rules:
                rule.check(node, ctx)
    findings = []
    for finding in sorted(ctx.findings, key=lambda f: (f.line, f.col, f.rule)):
        if pragmas.suppresses(finding.rule, finding.line):
            finding = Finding(**{**finding.to_dict(), "suppressed": True})
        findings.append(finding)
    facts = collect_facts(tree, path, module, source) if collect else None
    return ModuleRecord(
        display_path=path,
        findings=findings,
        facts=facts,
        pragmas=pragmas,
        parse_error=None,
    )


def lint_source(
    source: str,
    path: str,
    config: LintConfig,
    rules: Optional[Sequence[Rule]] = None,
) -> Tuple[List[Finding], Optional[str]]:
    """Lint one module's text; returns (findings, parse_error).

    Per-module pass only -- the cross-module rules need every module's
    facts and run in :func:`lint_paths`.
    """
    record = _scan_module(
        source,
        path,
        config,
        rules if rules is not None else RULES,
        collect=False,
    )
    return record.findings, record.parse_error


def iter_python_files(
    paths: Iterable[Path], exclude: Tuple[str, ...] = ()
) -> List[Path]:
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
    seen = set()
    selected: List[Path] = []
    for file in files:
        key = str(file)
        if key in seen or any(marker in key for marker in exclude):
            continue
        seen.add(key)
        selected.append(file)
    return selected


def lint_paths(
    paths: Optional[Sequence[Path]] = None,
    config: Optional[LintConfig] = None,
    rules: Optional[Sequence[Rule]] = None,
    *,
    project_rules: Optional[Sequence[ProjectRule]] = None,
) -> LintResult:
    """Lint files/directories through both passes.

    ``rules``/``project_rules`` override the default populations (a
    custom per-module ``rules`` list skips the project pass unless
    ``project_rules`` is also given).  Pragmas apply to both passes.
    """
    config = config if config is not None else LintConfig()
    if paths is None:
        paths = [config.resolve(entry) for entry in config.paths]
    per_module_rules = rules if rules is not None else RULES
    run_project = rules is None or project_rules is not None
    selected_project = (
        _select_project_rules(
            config,
            project_rules if project_rules is not None else PROJECT_RULES,
        )
        if run_project
        else []
    )
    # Validate ``disable`` up front even if no file ends up scanned.
    _select_rules(config, per_module_rules)

    result = LintResult()
    records: List[ModuleRecord] = []
    for file in iter_python_files(paths, config.exclude):
        try:
            source = file.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            result.parse_errors.append(f"{file}: unreadable: {exc}")
            continue
        record = _scan_module(
            source, _display_path(file, config), config, per_module_rules, run_project
        )
        records.append(record)
        if record.parse_error is not None:
            result.parse_errors.append(record.parse_error)
    result.files_scanned = len(records)

    # Pass two: the cross-module rules over every module's facts.
    project_by_path: Dict[str, List[Finding]] = {}
    if selected_project:
        context = ProjectContext(
            [r.facts for r in records if r.facts is not None], config
        )
        for rule in selected_project:
            rule.check_project(context)
        pragmas_by_path = {r.display_path: r.pragmas for r in records}
        for finding in context.findings:
            pragmas = pragmas_by_path.get(finding.path)
            if pragmas is not None and pragmas.suppresses(
                finding.rule, finding.line
            ):
                finding = Finding(**{**finding.to_dict(), "suppressed": True})
            project_by_path.setdefault(finding.path, []).append(finding)

    for record in records:
        merged = record.findings + project_by_path.get(record.display_path, [])
        merged.sort(key=lambda f: (f.line, f.col, f.rule))
        result.findings.extend(merged)
    return result


def _display_path(file: Path, config: LintConfig) -> str:
    """Config-root-relative path (stable across checkouts) when possible."""
    try:
        return file.resolve().relative_to(Path(config.root).resolve()).as_posix()
    except ValueError:
        return file.as_posix()
