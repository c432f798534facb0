"""The cracker tape: an append-only log of refinement actions.

Every crack, sort or merge on a cracker index is recorded with its
origin (query-driven vs tuning-driven), virtual timestamp and the size
of the piece it refined.  The tape powers:

* the Figure-1 style timeline reproduction (`repro.bench.timeline`);
* the workload monitor's view of *who* refined *what* and *when*;
* debugging, and the latch protocol's contention accounting.

When parallel tuning workers are active each record also carries the
id of the worker that performed it (``None`` for foreground/serial
work, so serial runs produce byte-identical tapes), and the tape
counts per-worker *contention stalls* -- latch acquisitions that had
to wait for another worker or a foreground query.  Appends are guarded
by a lock so worker threads can share one tape.

Hot-path design.  Recording is an append of a raw tuple;
:class:`TapeRecord` objects are materialized lazily on read, so the
steady state pays one tuple and one deque append per crack instead of
a dataclass construction.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.cracking.piece import CrackOrigin


@dataclass(frozen=True, slots=True)
class TapeRecord:
    """One refinement action on a cracker index."""

    timestamp: float
    origin: CrackOrigin
    pivot: int | float
    position: int
    piece_size: int
    worker: int | None = None

    def __repr__(self) -> str:
        suffix = "" if self.worker is None else f", worker={self.worker}"
        return (
            f"TapeRecord(t={self.timestamp:.6f}, {self.origin.value}, "
            f"pivot={self.pivot}, pos={self.position}, "
            f"piece={self.piece_size}{suffix})"
        )


class CrackTape:
    """Append-only refinement log with per-origin counters."""

    def __init__(self) -> None:
        #: Raw (timestamp, origin, pivot, position, piece_size, worker)
        #: tuples; TapeRecord objects are built lazily on read.
        self._records: deque[tuple] = deque()
        #: Keyed by ``CrackOrigin.value`` -- string hashing is cheaper
        #: than enum hashing on the per-crack path.
        self._counts: dict[str, int] = {o.value: 0 for o in CrackOrigin}
        self._seen = 0
        self._stalls: dict[int | None, int] = {}
        self._lock = threading.Lock()
        self._tls = threading.local()
        #: Until some thread takes attribution (or a worker pool marks
        #: the tape), every append happens on one thread and the lock
        #: is skipped -- one less acquire/release per crack.
        self._concurrent = False

    def mark_concurrent(self) -> None:
        """Switch appends to the locked path (worker threads ahead).

        One-way: once concurrent, always concurrent.  Called by the
        tuning worker pool on construction and implicitly by
        :meth:`attribution`.
        """
        self._concurrent = True

    # -- worker attribution --------------------------------------------

    @contextmanager
    def attribution(self, worker: int | None) -> Iterator[None]:
        """Attribute records made by this thread to ``worker``."""
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

    def records_by_worker(self) -> dict[int | None, int]:
        """Record counts keyed by worker id (None = foreground)."""
        with self._lock:
            counts: dict[int | None, int] = {}
            for raw in self._records:
                counts[raw[5]] = counts.get(raw[5], 0) + 1
            return counts

    # -- recording ------------------------------------------------------

    def log(
        self,
        timestamp: float,
        origin: CrackOrigin,
        pivot: int | float,
        position: int,
        piece_size: int,
        worker: int | None = None,
    ) -> tuple:
        """Append one action without materializing a :class:`TapeRecord`.

        The hot-path variant of :meth:`record`: the index logs every
        crack but never reads the record back, so the dataclass is not
        constructed.  Returns the raw stored tuple.
        """
        if not self._concurrent:
            # Single-threaded fast path: no attribution is possible
            # (taking one flips the flag), so ``worker`` stands as
            # given and the lock is unnecessary.
            raw = (timestamp, origin, pivot, position, piece_size, worker)
            self._counts[origin.value] += 1
            self._seen += 1
            self._records.append(raw)
            return raw
        if worker is None:
            worker = getattr(self._tls, "worker", None)
        raw = (timestamp, origin, pivot, position, piece_size, worker)
        with self._lock:
            self._counts[origin.value] += 1
            self._seen += 1
            self._records.append(raw)
        return raw

    def record(
        self,
        timestamp: float,
        origin: CrackOrigin,
        pivot: int | float,
        position: int,
        piece_size: int,
        worker: int | None = None,
    ) -> TapeRecord:
        """Append one action; return its record.

        ``worker`` defaults to the calling thread's attribution (see
        :meth:`attribution`); foreground/serial work records ``None``.
        """
        return TapeRecord(
            *self.log(timestamp, origin, pivot, position, piece_size, worker)
        )

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TapeRecord]:
        return iter(self.records())

    def records(self) -> list[TapeRecord]:
        """All records, oldest first (materialized copies)."""
        with self._lock:
            return [TapeRecord(*raw) for raw in self._records]

    def count(self, origin: CrackOrigin | None = None) -> int:
        """Number of actions seen, optionally filtered by origin."""
        if origin is None:
            return self._seen
        return self._counts[origin.value]

    def last(self) -> TapeRecord | None:
        """The most recent record, or None when empty."""
        with self._lock:
            if not self._records:
                return None
            return TapeRecord(*self._records[-1])

    def since(self, timestamp: float) -> list[TapeRecord]:
        """Records strictly newer than ``timestamp``."""
        return [r for r in self.records() if r.timestamp > timestamp]

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self._counts = {o.value: 0 for o in CrackOrigin}
            self._seen = 0
            self._stalls.clear()

    # -- persistence -----------------------------------------------------

    def export_state(self) -> dict:
        """Plain-structure dump of the records + counters.

        Records come out as parallel lists (the snapshot layer packs
        them into typed arrays); ``worker`` is encoded as ``-1`` for
        foreground/serial records so the columns stay numeric.  One
        tape spans columns of every dtype, so an integer pivot goes to
        ``int_pivots`` exactly, with NaN -- never a pivot -- in its
        ``pivots`` slot; a float pivot has ``0`` in ``int_pivots``.
        """
        with self._lock:
            raw = list(self._records)
            pivots = [r[2] for r in raw]
            return {
                "timestamps": [r[0] for r in raw],
                "origins": [r[1].value for r in raw],
                "pivots": [
                    math.nan if isinstance(p, int) else float(p)
                    for p in pivots
                ],
                "int_pivots": [p if isinstance(p, int) else 0 for p in pivots],
                "positions": [int(r[3]) for r in raw],
                "piece_sizes": [int(r[4]) for r in raw],
                "workers": [-1 if r[5] is None else int(r[5]) for r in raw],
                "counts": dict(self._counts),
                "seen": self._seen,
                "stalls": {
                    ("" if k is None else str(k)): v
                    for k, v in self._stalls.items()
                },
            }

    def restore_state(self, state: dict) -> None:
        """Adopt a previously-exported tape state (snapshot restore).

        A state without ``int_pivots`` (written before integer pivots
        were kept exactly) restores every pivot as the float it holds.
        """
        pivots = state["pivots"]
        if "int_pivots" in state:
            pivots = [
                int(exact) if p != p else p
                for p, exact in zip(pivots, state["int_pivots"])
            ]
        with self._lock:
            self._records = deque()
            origins = {o.value: o for o in CrackOrigin}
            for ts, origin, pivot, pos, size, worker in zip(
                state["timestamps"],
                state["origins"],
                pivots,
                state["positions"],
                state["piece_sizes"],
                state["workers"],
            ):
                self._records.append(
                    (
                        float(ts),
                        origins[origin],
                        pivot,
                        int(pos),
                        int(size),
                        None if int(worker) < 0 else int(worker),
                    )
                )
            self._counts = {
                o.value: int(state["counts"].get(o.value, 0))
                for o in CrackOrigin
            }
            self._seen = int(state["seen"])
            self._stalls = {
                (None if key == "" else int(key)): int(value)
                for key, value in state["stalls"].items()
            }
