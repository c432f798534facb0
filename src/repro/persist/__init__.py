"""Durable index lifecycle: versioned snapshots and restore.

Everything the engine *learned* -- piece maps, pending-update stores,
workload statistics, virtual-clock totals -- can be checkpointed into
a versioned, checksummed generation directory and restored after a
crash, each cracker column sorted from its base column, so a
restarted kernel resumes convergence instead of re-cracking from
scratch.  See :mod:`repro.persist.format` for the on-disk protocol and
:mod:`repro.persist.manager` for the lifecycle API.
"""

from repro.persist.format import (
    FORMAT_VERSION,
    current_generation,
    list_generations,
    prune,
    quick_verify_manifest,
    read_current_manifest,
    read_manifest,
    verify_manifest,
    write_generation,
)
from repro.persist.manager import (
    CheckpointResult,
    IncrementalCheckpointer,
    SnapshotManager,
    restore_snapshot,
)
from repro.persist.snapshot import RestoredState, capture_state
from repro.persist.verify import BackgroundVerifier

__all__ = [
    "FORMAT_VERSION",
    "BackgroundVerifier",
    "CheckpointResult",
    "IncrementalCheckpointer",
    "RestoredState",
    "SnapshotManager",
    "capture_state",
    "current_generation",
    "list_generations",
    "prune",
    "quick_verify_manifest",
    "read_current_manifest",
    "read_manifest",
    "restore_snapshot",
    "verify_manifest",
    "write_generation",
]
