"""The cracker tape: counters of refinement actions.

Every crack, sort or merge on a cracker index is counted by its origin
(query-driven vs tuning-driven).  The tape keeps no history -- the
kernel decides from counters and reads the piece map itself -- so its
memory stays constant however long a column is refined.  The counts
feed the Figure-1 timeline (`repro.bench.timeline`), the gate
suites' fingerprints and snapshots.

Only one thread counts: tuning workers hand their passes back to the
idle window's thread, which logs them.
"""

from __future__ import annotations

from repro.cracking.piece import CrackOrigin


class CrackTape:
    """Per-origin refinement counters."""

    def __init__(self) -> None:
        #: Keyed by member: reading ``origin.value`` costs two frames a
        #: crack; the values name the counts only in snapshots.
        self._counts: dict[CrackOrigin, int] = dict.fromkeys(CrackOrigin, 0)
        self._seen = 0

    def stall_count(self) -> int:
        """Always 0: no worker waits on another.  It stays because
        ``perfbench/workloads.py`` reads it (ROADMAP item 1a)."""
        return 0

    # -- counting -------------------------------------------------------

    def log(self, origin: CrackOrigin, actions: int = 1) -> None:
        """Count ``actions`` refinements of ``origin``."""
        self._counts[origin] += actions
        self._seen += actions

    #: Update merges count under this name; ``perfbench/layers.py``
    #: traces ``log`` and ``record`` both.
    record = log

    def count(self, origin: CrackOrigin | None = None) -> int:
        """Number of actions seen, optionally filtered by origin."""
        if origin is None:
            return self._seen
        return self._counts[origin]

    # -- persistence -----------------------------------------------------

    def export_state(self) -> dict:
        """The counters as plain JSON-ready structures."""
        return {
            "counts": {o.value: n for o, n in self._counts.items()},
            "seen": self._seen,
        }

    def restore_state(self, state: dict) -> None:
        """Adopt counters :meth:`export_state` wrote (snapshot restore).

        Raises:
            KeyError: on a state missing an origin's count.
            ValueError: on a state whose keys are not the ones
                :meth:`export_state` writes, or a count of an origin
                the tape does not have.
        """
        if state.keys() != {"counts", "seen"}:
            raise ValueError("tape state has keys export_state never wrote")
        counts = state["counts"]
        unknown = counts.keys() - {o.value for o in CrackOrigin}
        if unknown:
            raise ValueError(f"tape counts no origin {min(unknown)!r}")
        self._counts = {o: int(counts[o.value]) for o in CrackOrigin}
        self._seen = int(state["seen"])
