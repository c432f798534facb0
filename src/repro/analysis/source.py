"""Parsed source files, waiver comments and repo discovery.

Waivers are per-line pragmas of the form::

    risky_call()  # repro: allow[rule-id] -- why this site is audited

The reason after ``--`` is mandatory: a waiver is an audit record, not
an off switch, and a reasonless one is itself reported as a finding
(rule ``waiver``).  A finding is suppressed when a matching waiver sits
on the line of the flagged node; a waiver that suppresses nothing is
stale, and reported (rule ``waiver``) so it is deleted with the code
that needed it.  Only comments that start with the pragma count.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.findings import Finding

#: ``# repro: allow[rule] -- reason`` (reason optionally missing, which
#: is itself a finding).
_WAIVER_RE = re.compile(
    r"#\s*repro:\s*allow\[(?P<rule>[a-z0-9-]+)\]"
    r"(?:\s*--\s*(?P<reason>\S.*))?"
)


@dataclass(slots=True)
class SourceFile:
    """One parsed module plus its waiver map."""

    path: Path
    text: str
    tree: ast.Module
    #: line number -> rule ids waived on that line
    waivers: dict[int, set[str]] = field(default_factory=dict)
    #: waivers missing their mandatory reason
    reasonless: list[tuple[int, str]] = field(default_factory=list)
    #: (line, rule) of the waivers that suppressed a finding
    used: set[tuple[int, str]] = field(default_factory=set)

    @classmethod
    def parse(cls, path: Path, text: str | None = None) -> "SourceFile":
        """Parse ``path`` (or explicit ``text``) into a SourceFile.

        Raises:
            SyntaxError: on unparseable source -- callers turn this
                into a finding rather than crashing the run.
        """
        if text is None:
            text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        src = cls(path=path, text=text, tree=tree)
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type != tokenize.COMMENT:
                continue
            match = _WAIVER_RE.match(token.string)
            if match is None:
                continue
            lineno = token.start[0]
            src.waivers.setdefault(lineno, set()).add(match.group("rule"))
            if not match.group("reason"):
                src.reasonless.append((lineno, match.group("rule")))
        return src

    def is_waived(self, rule: str, line: int) -> bool:
        """Whether a waiver suppresses ``rule`` on ``line`` (and, if
        so, that waiver is in use)."""
        if rule not in self.waivers.get(line, ()):
            return False
        self.used.add((line, rule))
        return True

    def stale_waiver_findings(self) -> list[Finding]:
        """A finding per waiver that suppressed nothing."""
        return [
            Finding(
                rule="waiver",
                path=str(self.path),
                line=line,
                message=f"waiver for [{rule}] suppresses no finding",
            )
            for line, rules in sorted(self.waivers.items())
            for rule in sorted(rules)
            if (line, rule) not in self.used
        ]

    def waiver_findings(self) -> list[Finding]:
        return [
            Finding(
                rule="waiver",
                path=str(self.path),
                line=line,
                message=(
                    f"waiver for [{rule}] is missing its mandatory "
                    "reason ('# repro: allow[...] -- why')"
                ),
            )
            for line, rule in self.reasonless
        ]


def repo_python_files(root: Path) -> list[Path]:
    """Every ``.py`` file under ``root``, sorted, caches excluded."""
    return sorted(
        p
        for p in root.rglob("*.py")
        if "__pycache__" not in p.parts
    )


def load_sources(
    paths: list[Path],
) -> tuple[list[SourceFile], list[Finding]]:
    """Parse ``paths``; syntax errors come back as findings."""
    sources: list[SourceFile] = []
    findings: list[Finding] = []
    for path in paths:
        try:
            sources.append(SourceFile.parse(path))
        except (SyntaxError, UnicodeDecodeError) as error:
            findings.append(
                Finding(
                    rule="parse",
                    path=str(path),
                    line=getattr(error, "lineno", 0) or 0,
                    message=f"could not parse: {error}",
                )
            )
    return sources, findings
