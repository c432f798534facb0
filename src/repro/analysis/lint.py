"""Lint driver: discover files, run every rule, apply waivers."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.findings import Finding
from repro.analysis.rules import ALL_RULES
from repro.analysis.rules.faultpoints import parse_registry
from repro.analysis.source import SourceFile, load_sources, repo_python_files


@dataclass
class LintContext:
    """Repo-level facts shared by every rule during one lint run."""

    root: Path
    fault_points: dict[str, int] = field(default_factory=dict)
    tamper_points: set[str] = field(default_factory=set)
    plan_path: Path | None = None
    used_fault_points: set[str] = field(default_factory=set)
    sources_by_path: dict[str, SourceFile] = field(default_factory=dict)

    @classmethod
    def build(cls, root: Path) -> "LintContext":
        ctx = cls(root=root)
        plan = root / "faults" / "plan.py"
        if plan.is_file():
            ctx.plan_path = plan
            ctx.fault_points, ctx.tamper_points = parse_registry(plan)
        return ctx

    def rel_parts(self, path: Path) -> tuple[str, ...]:
        """Path components relative to the lint root (full parts when
        the file sits outside it, e.g. a test fixture)."""
        try:
            return path.resolve().relative_to(self.root.resolve()).parts
        except ValueError:
            return path.parts


def run_lint(
    paths: list[Path] | None = None,
    root: Path | None = None,
) -> list[Finding]:
    """Lint ``paths`` (default: every ``.py`` under ``root``).

    ``root`` defaults to the installed ``repro`` package directory, so
    ``run_lint()`` with no arguments checks the whole source tree.
    Waivers are applied here: a finding whose rule is waived on its
    line (with a reason) is dropped; reasonless waivers, and waivers
    that dropped nothing, surface as rule ``waiver`` findings and
    cannot themselves be waived.
    """
    if root is None:
        root = Path(__file__).resolve().parent.parent
    if paths is None:
        paths = repo_python_files(root)
    sources, findings = load_sources(paths)
    ctx = LintContext.build(root)
    for src in sources:
        ctx.sources_by_path[str(src.path)] = src
    for src in sources:
        findings.extend(src.waiver_findings())
        for rule in ALL_RULES:
            for finding in rule.check(src, ctx):
                if not src.is_waived(finding.rule, finding.line):
                    findings.append(finding)
    for rule in ALL_RULES:
        finalize = getattr(rule, "finalize", None)
        if finalize is None:
            continue
        for finding in finalize(ctx):
            src = ctx.sources_by_path.get(finding.path)
            if src is not None and src.is_waived(finding.rule, finding.line):
                continue
            findings.append(finding)
    for src in sources:
        findings.extend(src.stale_waiver_findings())
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule))
