"""In-source suppression pragmas.

Two spellings::

    x = time.time()  # padll: allow(DET001) -- live path, never cached
    # padll: allow(DET001, DET004)
    y = wall_clock_block()

A line-level pragma suppresses matching findings on its own line *and*
on the line directly below (so a pragma can sit above a long statement).
A file-level pragma ``# padll: allow-file(RULE)`` anywhere in the module
suppresses the rule for the whole file -- reserve it for modules whose
entire purpose is exempt (e.g. a wall-clock benchmark harness).

Pragmas are read with :mod:`tokenize` so ``#`` characters inside string
literals can never masquerade as suppressions.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, Set, Tuple

__all__ = ["PragmaIndex", "scan_pragmas"]

_PRAGMA_RE = re.compile(
    r"#\s*padll:\s*(?P<kind>allow|allow-file)\(\s*(?P<rules>[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)\s*\)"
)


class PragmaIndex:
    """Pragma lookup for one module."""

    def __init__(self, line_rules: Dict[int, Set[str]], file_rules: Set[str]) -> None:
        self._line_rules = line_rules
        self._file_rules = file_rules

    def suppresses(self, rule: str, line: int) -> bool:
        if rule in self._file_rules:
            return True
        for candidate in (line, line - 1):
            if rule in self._line_rules.get(candidate, ()):
                return True
        return False

    @property
    def empty(self) -> bool:
        return not self._line_rules and not self._file_rules


def scan_pragmas(source: str) -> PragmaIndex:
    """Extract every pragma comment from ``source``."""
    line_rules: Dict[int, Set[str]] = {}
    file_rules: Set[str] = set()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments: Tuple[Tuple[int, str], ...] = tuple(
            (tok.start[0], tok.string)
            for tok in tokens
            if tok.type == tokenize.COMMENT
        )
    except (tokenize.TokenError, SyntaxError, IndentationError):
        # Unparseable tail (the AST parse will report it); best-effort
        # fallback keeps pragma behaviour consistent for the valid prefix.
        comments = tuple(
            (lineno, line)
            for lineno, line in enumerate(source.splitlines(), start=1)
            if "#" in line
        )
    for lineno, text in comments:
        match = _PRAGMA_RE.search(text)
        if match is None:
            continue
        rules = {part.strip() for part in match.group("rules").split(",")}
        if match.group("kind") == "allow-file":
            file_rules.update(rules)
        else:
            line_rules.setdefault(lineno, set()).update(rules)
    return PragmaIndex(line_rules, file_rules)
