"""The lint gate's own regression suite: known-bad fixtures must flag,
the real tree must be clean, and the CLI must gate on both."""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.lint import run_lint

FIXTURES = Path(__file__).parent / "fixtures"
SRC_ROOT = Path(repro.__file__).resolve().parent

#: fixture file -> the rule it must trip (one entry per rule family).
EXPECTED = {
    "bad_latch_gap.py": "latch-discipline",
    "bad_latch_return.py": "latch-discipline",
    "bad_determinism_time.py": "determinism",
    "bad_determinism_random.py": "determinism",
    "bad_dtype_promotion.py": "dtype-promotion",
    "bad_dtype_scalar_probe.py": "dtype-promotion",
    "bad_fault_unregistered.py": "fault-coverage",
    "bad_waiver_reasonless.py": "waiver",
    "bad_waiver_stale.py": "waiver",
}


def test_every_fixture_has_an_expectation():
    on_disk = {p.name for p in FIXTURES.glob("*.py")}
    assert on_disk == set(EXPECTED)


@pytest.mark.parametrize("name,rule", sorted(EXPECTED.items()))
def test_fixture_is_flagged(name: str, rule: str):
    findings = run_lint([FIXTURES / name], root=SRC_ROOT)
    assert findings, f"{name} produced no findings at all"
    assert any(f.rule == rule for f in findings), (
        f"{name} expected a [{rule}] finding, got "
        f"{[f.format() for f in findings]}"
    )


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_cli_check_exits_nonzero_on_fixture(name: str):
    code = analysis_main(
        ["--check", "--no-mypy", str(FIXTURES / name)]
    )
    assert code == 1


def test_repo_lints_clean():
    """The real tree carries zero findings -- genuinely clean, not
    allowlisted clean (waivers all carry reasons or they'd flag)."""
    findings = run_lint(root=SRC_ROOT)
    assert findings == [], "\n".join(f.format() for f in findings)


def test_cli_check_exits_zero_on_repo():
    assert analysis_main(["--check", "--no-mypy"]) == 0


def test_findings_format_and_dict_roundtrip():
    findings = run_lint(
        [FIXTURES / "bad_determinism_time.py"], root=SRC_ROOT
    )
    finding = findings[0]
    assert str(finding.line) in finding.format()
    assert finding.as_dict()["rule"] == finding.rule
