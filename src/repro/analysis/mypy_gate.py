"""Strict-mode mypy gate for the annotated core modules.

mypy is not a runtime dependency of the repro package; local dev
containers may not have it.  The gate therefore *skips* (exit 0, with
a notice) when mypy is not importable, unless ``required=True`` -- CI
passes ``--require-mypy`` after installing it, so type regressions
cannot slip through where it matters while offline checkouts still
lint.  Scope and strictness live in ``mypy.ini`` at the repo root
(strict for ``repro.simtime.*`` and ``repro.cracking.piecemap``;
everything else is only imported, silently).
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

#: Module paths (relative to the source root) the gate type-checks.
CHECKED_PATHS = (
    "repro/simtime",
    "repro/cracking/piecemap.py",
)


@dataclass(frozen=True, slots=True)
class MypyResult:
    status: str  # "ok" | "findings" | "skipped" | "missing-config"
    output: str

    @property
    def failed(self) -> bool:
        return self.status in ("findings", "missing-config")


def mypy_available() -> bool:
    return importlib.util.find_spec("mypy") is not None


def run_mypy(
    src_root: Path | None = None, required: bool = False
) -> MypyResult:
    """Run mypy over :data:`CHECKED_PATHS`.

    Args:
        src_root: directory containing the ``repro`` package (defaults
            to the installed location's parent).
        required: when True, an absent mypy is a failure instead of a
            skip -- set by CI, where the install is guaranteed.
    """
    if src_root is None:
        src_root = Path(__file__).resolve().parent.parent.parent
    if not mypy_available():
        status = "missing-config" if required else "skipped"
        return MypyResult(
            status=status,
            output=(
                "mypy is not installed"
                + ("; required by this run" if required else "; skipping")
            ),
        )
    config = _find_config(src_root)
    if config is None:
        return MypyResult(
            status="missing-config",
            output="mypy.ini not found above the source root",
        )
    targets = [str(src_root / path) for path in CHECKED_PATHS]
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "mypy",
            "--config-file",
            str(config),
            *targets,
        ],
        capture_output=True,
        text=True,
        cwd=str(config.parent),
        check=False,
    )
    output = (proc.stdout + proc.stderr).strip()
    return MypyResult(
        status="ok" if proc.returncode == 0 else "findings",
        output=output,
    )


def _find_config(src_root: Path) -> Path | None:
    for base in (src_root, *src_root.parents):
        candidate = base / "mypy.ini"
        if candidate.is_file():
            return candidate
    return None
