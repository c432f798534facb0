"""Finding: one rule violation at one source location."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True, slots=True)
class Finding:
    """One static-analysis violation.

    Attributes:
        rule: rule identifier (``determinism``, ``dtype-promotion``,
            ``fault-coverage``, ``lock-discipline``, ``waiver``).
        path: file the violation is in (repo-relative when produced by
            the CLI).
        line: 1-based line of the offending node.
        message: human-readable statement of the violation.
    """

    rule: str
    path: str
    line: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def as_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }
