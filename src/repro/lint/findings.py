"""The finding record every rule emits and every reporter renders."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

__all__ = ["Finding"]


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at a concrete source location."""

    rule: str
    #: Path as scanned (repo-relative when the engine is given relative roots).
    path: str
    line: int
    col: int
    message: str
    #: The stripped source line, for reports.
    source: str = ""
    #: True when an in-source pragma suppressed this finding.
    suppressed: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "source": self.source,
            "suppressed": self.suppressed,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
