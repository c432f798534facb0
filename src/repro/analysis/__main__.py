"""CLI: ``python -m repro.analysis`` -- the repo's static-analysis gate.

Runs, in order: the AST lint rules (determinism, dtype promotion,
fault-point coverage, lock discipline, waiver hygiene) and -- when
available or ``--require-mypy`` -- the strict mypy gate.
``--check`` exits nonzero on any finding, which is what CI calls;
``--json`` emits the full machine-readable report.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.lint import run_lint
from repro.analysis.mypy_gate import run_mypy
from repro.analysis.source import repo_python_files


def _default_root() -> Path:
    return Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="lint and typing gate for the repro tree",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files to analyse (default: the whole repro package)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero on any finding (the CI gate)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit a JSON report"
    )
    parser.add_argument(
        "--no-mypy",
        action="store_true",
        help="skip the mypy gate even when mypy is installed",
    )
    parser.add_argument(
        "--require-mypy",
        action="store_true",
        help="treat an absent mypy as a failure (CI)",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="source root holding the repro package tree",
    )
    args = parser.parse_args(argv)

    root = args.root if args.root is not None else _default_root()
    paths = (
        [p for p in args.paths] if args.paths else repo_python_files(root)
    )

    findings = run_lint(paths, root=root)
    mypy_result = None
    if not args.no_mypy:
        mypy_result = run_mypy(required=args.require_mypy)

    failed = bool(findings) or (
        mypy_result is not None and mypy_result.failed
    )

    if args.json:
        print(
            json.dumps(
                {
                    "findings": [f.as_dict() for f in findings],
                    "mypy": (
                        None
                        if mypy_result is None
                        else {
                            "status": mypy_result.status,
                            "output": mypy_result.output,
                        }
                    ),
                    "ok": not failed,
                },
                indent=2,
            )
        )
    else:
        for finding in findings:
            print(finding.format())
        if mypy_result is not None:
            print(f"mypy: {mypy_result.status}")
            if mypy_result.output and mypy_result.status != "ok":
                print(mypy_result.output)
        verdict = "FAIL" if failed else "OK"
        print(f"static-analysis: {verdict} ({len(findings)} findings)")

    if args.check:
        return 1 if failed else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
