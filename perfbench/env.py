"""Where the benchmark lives and the environment its workloads run in.

A workload process runs with a pinned glibc allocator: no ``mmap``
for large blocks and no trimming, so memory the warm-up pass touched
stays mapped and the timed passes take no page faults (on this class
of VM a first touch costs ~30 us per 4 KiB page, which made identical
cold passes differ 3x).  The variables must be in the environment
before the interpreter starts, hence ``__main__``'s re-exec.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

ALLOCATOR_ENV = {
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": str(1 << 40),
    "MALLOC_TOP_PAD_": str(64 << 20),
}

#: fsync before rename, as ``repro.persist.format`` ships it.
FLUSH_POLICY = "fsync + rename (as shipped)"


def workload_environment() -> dict[str, str]:
    """The environment a workload process runs in."""
    env = dict(os.environ)
    env.update(ALLOCATOR_ENV)
    paths = [str(ROOT), str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PERFBENCH_PINNED"] = "1"
    return env


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path``."""
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    target = str(path.resolve())
    for line in mounts:
        _, mount, fstype, *_ = line.split()
        if target.startswith(mount) and len(mount) > len(best):
            best, kind = mount, fstype
    return kind


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def describe(seed: int) -> dict[str, object]:
    """The ``env`` block of a report."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "allocator": ALLOCATOR_ENV,
        "snapshot_filesystem": _filesystem_of(OUT_DIR),
        "flush_policy": FLUSH_POLICY,
        "seed": seed,
    }
