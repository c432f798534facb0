"""The cracker tape: counters of refinement actions.

Every crack, sort or merge on a cracker index is counted by its origin
(query-driven vs tuning-driven).  The tape keeps no history -- the
kernel decides from counters and reads the piece map itself -- so its
memory stays constant however long a column is refined.  The counts
feed the Figure-1 timeline (`repro.bench.timeline`), the gate
suites' fingerprints and snapshots.

The tape also counts per-worker *contention stalls* -- latch
acquisitions that had to wait for another worker or a foreground
query -- under the worker id a thread takes with :meth:`attribution`.
Once worker threads may share the tape, counting takes a lock.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

from repro.cracking.piece import CrackOrigin


class CrackTape:
    """Per-origin refinement counters and per-worker latch stalls."""

    def __init__(self) -> None:
        #: Keyed by member: reading ``origin.value`` costs two frames a
        #: crack; the values name the counts only in snapshots.
        self._counts: dict[CrackOrigin, int] = dict.fromkeys(CrackOrigin, 0)
        self._seen = 0
        self._stalls: dict[int | None, int] = {}
        self._lock = threading.Lock()
        self._tls = threading.local()
        #: Until some thread takes attribution (or a worker pool marks
        #: the tape), every count happens on one thread and the lock
        #: is skipped -- one less acquire/release per crack.
        self._concurrent = False

    def mark_concurrent(self) -> None:
        """Switch counting to the locked path (worker threads ahead).

        One-way: once concurrent, always concurrent.  Called by the
        tuning worker pool on construction and implicitly by
        :meth:`attribution`.
        """
        self._concurrent = True

    # -- worker attribution --------------------------------------------

    @contextmanager
    def attribution(self, worker: int | None) -> Iterator[None]:
        """Attribute stalls this thread meets to ``worker``."""
        self._concurrent = True
        previous = getattr(self._tls, "worker", None)
        self._tls.worker = worker
        try:
            yield
        finally:
            self._tls.worker = previous

    def current_worker(self) -> int | None:
        """The worker id attributed to the calling thread, if any."""
        return getattr(self._tls, "worker", None)

    def note_stall(self, worker: int | None = None) -> None:
        """Count one contention stall (a latch wait) for ``worker``.

        With no explicit worker the calling thread's attribution is
        used, so latched index access can report stalls without knowing
        which worker drives it.
        """
        if worker is None:
            worker = self.current_worker()
        with self._lock:
            self._stalls[worker] = self._stalls.get(worker, 0) + 1

    def stall_count(self, worker: int | None = ...) -> int:  # type: ignore[assignment]
        """Stalls recorded, total or for one worker id."""
        with self._lock:
            if worker is ...:
                return sum(self._stalls.values())
            return self._stalls.get(worker, 0)

    # -- counting -------------------------------------------------------

    def log(self, origin: CrackOrigin, actions: int = 1) -> None:
        """Count ``actions`` refinements of ``origin``."""
        if not self._concurrent:
            self._counts[origin] += actions
            self._seen += actions
            return
        with self._lock:
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
        """The counters as plain JSON-ready structures; a stall's
        worker ``None`` (foreground/serial) is keyed ``""``."""
        with self._lock:
            return {
                "counts": {o.value: n for o, n in self._counts.items()},
                "seen": self._seen,
                "stalls": {
                    ("" if k is None else str(k)): v
                    for k, v in self._stalls.items()
                },
            }

    def restore_state(self, state: dict) -> None:
        """Adopt counters :meth:`export_state` wrote (snapshot restore).

        Raises:
            KeyError: on a state missing a counter or an origin's count.
            ValueError: on a count of an origin the tape does not have.
        """
        counts = state["counts"]
        unknown = counts.keys() - {o.value for o in CrackOrigin}
        if unknown:
            raise ValueError(f"tape counts no origin {min(unknown)!r}")
        with self._lock:
            self._counts = {o: int(counts[o.value]) for o in CrackOrigin}
            self._seen = int(state["seen"])
            self._stalls = {
                (None if key == "" else int(key)): int(value)
                for key, value in state["stalls"].items()
            }
