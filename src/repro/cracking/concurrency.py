"""Piece-level latching for concurrent cracking.

"Concurrency control for adaptive indexing" (Graefe et al., PVLDB 2012
-- the paper's [7]) observes that cracking turns read-only selects into
structural writers, and resolves it with short-lived latches on the
pieces a select is about to crack.  This module is that protocol, used
by the parallel tuning workers of :mod:`repro.holistic.workers`, which
share an idle window's indexes:

* :class:`ReadWriteLatch` -- a condition-variable read/write latch that
  reports whether an acquisition had to wait (a *contention stall*);
* :class:`PieceLatchTable` -- blocking write latches keyed by a
  piece's start position, plus a table-level latch so whole-index
  actions (a supervisor's rebuild) can exclude piece-level traffic;
* :class:`LatchedCrackerAccess` -- a facade over one
  :class:`CrackerIndex` that latches the pieces an operation will
  restructure before running it, revalidating after acquisition
  (cracks move piece boundaries, so a latch taken on a stale key is
  released and re-acquired on the fresh one).

The latch is the conflict granule of one *structural step*, not of one
pivot (Graefe et al. only require the former): a tuning worker applies
a whole batch of pivots as one multi-pivot pass under the write
latches of exactly the pieces it splits
(:meth:`LatchedCrackerAccess.crack_value`), so the protocol's cost is
paid per batch -- the partition-first chunking Alvarez et al. measure
winning over latch-per-crack "parallel standard cracking".  Conflicting
piece accesses wait, non-conflicting ones do not, and every wait is
counted as a stall on the crack tape.  Memory safety still comes from
the index's monitor lock, which serialises the physical passes of one
column in wall-clock time (the kernels release the GIL inside numpy,
so passes on *different* columns can overlap); the virtual clock's
parallel lanes translate the latch-level concurrency into the paper's
multi-core time accounting.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro import faults
from repro.analysis import witness
from repro.cracking.index import CrackerIndex
from repro.errors import ConcurrencyError, ConfigError, LatchTimeout
from repro.simtime.clock import wall_now, wall_sleep
from repro.storage.views import RangeView


@dataclass(slots=True)
class LatchStats:
    grants: int = 0
    conflicts: int = 0
    releases: int = 0


class ReadWriteLatch:
    """A blocking read/write latch that reports contention.

    Many readers or one writer; acquisitions return ``True`` when they
    had to wait for another holder (a contention stall), which the
    callers feed into the crack tape's stall accounting.  Writers are
    not prioritised -- at tuning-action granularity starvation is not a
    practical concern, and the simpler protocol is easier to reason
    about.
    """

    def __init__(
        self,
        witness_group: str | None = None,
        witness_key: int | str | None = None,
    ) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        #: Lock-class tag for the latch witness (see
        #: :mod:`repro.analysis.witness`); ``None`` reads as untagged.
        self.witness_group = witness_group
        self.witness_key = witness_key

    def acquire_read(self, timeout_s: float | None = None) -> bool:
        with self._cond:
            stalled = self._writer
            deadline = (
                None if timeout_s is None else wall_now() + timeout_s
            )
            while self._writer:
                self._wait(deadline, "read")
            self._readers += 1
        w = witness.active()
        if w is not None:
            w.note_acquire(self, "r")
        return stalled

    def release_read(self) -> None:
        w = witness.active()
        if w is not None:
            w.note_release(self, "r")
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self, timeout_s: float | None = None) -> bool:
        with self._cond:
            stalled = self._writer or self._readers > 0
            deadline = (
                None if timeout_s is None else wall_now() + timeout_s
            )
            while self._writer or self._readers > 0:
                self._wait(deadline, "write")
            self._writer = True
        w = witness.active()
        if w is not None:
            w.note_acquire(self, "w")
        return stalled

    def _wait(self, deadline: float | None, mode: str) -> None:
        """One condition wait bounded by ``deadline``.

        Raises:
            LatchTimeout: past the deadline; transient by contract, the
                caller re-tries the acquisition.
        """
        if deadline is None:
            self._cond.wait()
            return
        remaining = deadline - wall_now()
        if remaining <= 0 or not self._cond.wait(remaining):
            raise LatchTimeout(
                f"{mode} latch not granted within its timeout"
            )

    def release_write(self) -> None:
        w = witness.active()
        if w is not None:
            w.note_release(self, "w")
        with self._cond:
            self._writer = False
            self._cond.notify_all()


class PieceLatchTable:
    """Blocking piece latches for one cracker index.

    The latch for a piece is keyed by the piece's start position, so
    each piece has its own.  A table-level read/write latch layers on
    top so whole-index operations (a supervisor's rebuild) can exclude
    all piece-level traffic without enumerating keys.
    """

    def __init__(
        self,
        acquire_timeout_s: float | None = None,
        witness_key: int | str | None = None,
    ) -> None:
        if acquire_timeout_s is not None and acquire_timeout_s <= 0:
            raise ConfigError(
                f"acquire_timeout_s must be > 0, got {acquire_timeout_s}"
            )
        #: Optional bound on piece-latch write waits; ``None`` waits
        #: forever.  A timeout raises LatchTimeout, which the access
        #: facade treats as transient (release nothing was held,
        #: re-acquire) -- the same path the fault plane's injected
        #: ``latch.acquire`` timeouts exercise.
        self.acquire_timeout_s = acquire_timeout_s
        self._latches: dict[int, ReadWriteLatch] = {}
        self._mutex = threading.Lock()
        #: Orders table-latch acquisitions of *different* indexes for
        #: the latch witness: owners that stack tables must sort by it.
        self.witness_key = witness_key
        self._table = ReadWriteLatch(
            witness_group="latch.table", witness_key=witness_key
        )
        self.stats = LatchStats()

    def _latch(self, key: int) -> ReadWriteLatch:
        with self._mutex:
            latch = self._latches.get(key)
            if latch is None:
                latch = ReadWriteLatch(
                    witness_group="latch.piece", witness_key=key
                )
                self._latches[key] = latch
            return latch

    def _note(self, stalled: bool) -> bool:
        with self._mutex:
            self.stats.grants += 1
            if stalled:
                self.stats.conflicts += 1
        return stalled

    @contextmanager
    def write_pieces(self, keys: Iterable[int]) -> Iterator[bool]:
        """Write-latch the pieces in ``keys``; yields True if stalled.

        Keys are acquired in sorted order so concurrent multi-piece
        acquirers (a select latching both of its bound pieces) cannot
        deadlock.

        Raises:
            LatchTimeout: when a configured (or injected) acquisition
                timeout elapses; no latch is left held.
        """
        faults.trip("latch.acquire", error=LatchTimeout)
        ordered = sorted(set(keys))
        stalled = self._table.acquire_read()
        held: list[ReadWriteLatch] = []
        try:
            for key in ordered:
                latch = self._latch(key)
                stalled = (
                    latch.acquire_write(self.acquire_timeout_s) or stalled
                )
                held.append(latch)
            yield self._note(stalled)
        finally:
            for latch in reversed(held):
                latch.release_write()
            self._table.release_read()
            with self._mutex:
                self.stats.releases += len(held)

    @contextmanager
    def exclusive(self) -> Iterator[bool]:
        """Latch the whole table (all pieces); yields True if stalled."""
        stalled = self._table.acquire_write()
        try:
            yield self._note(stalled)
        finally:
            self._table.release_write()
            with self._mutex:
                self.stats.releases += 1


class LatchedCrackerAccess:
    """Piece-latched access to one :class:`CrackerIndex` for threads.

    Tuning workers go through this facade while a worker pool runs:
    each operation latches the piece(s) it may restructure, revalidates
    the piece location
    after acquisition (another thread's crack can move a value into a
    newly created piece with a different latch key) and only then runs
    the underlying index operation.  Stalls are reported to the index's
    crack tape under the calling thread's worker attribution.
    """

    #: Bounded retries for the latch-revalidate loop; each retry means
    #: another thread restructured the target piece between lookup and
    #: latch grant, so progress is being made globally -- the bound
    #: only guards against protocol bugs.
    MAX_RETRIES = 10_000

    def __init__(self, index: CrackerIndex, table: PieceLatchTable) -> None:
        self.index = index
        self.table = table

    def _note_stall(self) -> None:
        self.index.tape.note_stall()

    def _keys_for(self, *values: float) -> list[int]:
        with self.index.lock:
            pieces = self.index.piece_map
            return sorted(
                {
                    pieces.piece_for_value(v).start for v in values
                }
            )

    def select_range(self, low: float, high: float) -> RangeView:
        """A cracking range select under piece latches.

        No kernel path calls it, as no query runs beside tuning
        workers; it stays because ``perfbench/layers.py`` names it
        (ROADMAP item 1a).

        A :class:`~repro.errors.LatchTimeout` (real or injected) is
        transient: the attempt is counted as a contention stall and the
        acquisition retried -- queries never fail on latch pressure.
        """
        for _ in range(self.MAX_RETRIES):
            keys = self._keys_for(low, high)
            try:
                with self.table.write_pieces(keys) as stalled:
                    if stalled:
                        self._note_stall()
                    if self._keys_for(low, high) != keys:
                        continue  # pieces moved while we waited; re-latch
                    return self.index.select_range(low, high)
            except LatchTimeout:
                self._note_stall()
                faults.recovered("latch.acquire", "select re-acquired")
                continue
        raise ConcurrencyError(
            f"select [{low}, {high}) could not stabilise its piece "
            f"latches after {self.MAX_RETRIES} retries"
        )

    def _crackable(
        self, values: Sequence[float], min_piece_size: int
    ) -> tuple[list[float], set[int]]:
        """The ``values`` a crack would still split, and the latch keys
        of the pieces they fall in.  Caller holds the index lock.

        A value that is already a pivot, or whose piece is at/below
        ``min_piece_size``, is degenerate -- same contract as
        :meth:`CrackerIndex.random_crack`.
        """
        locate = self.index.piece_map.locate
        targets: list[float] = []
        keys: set[int] = set()
        for value in values:
            _, start, end, at_pivot = locate(value)
            if not at_pivot and end - start > min_piece_size:
                targets.append(value)
                keys.add(start)
        return targets, keys

    def crack_value(
        self,
        value: float | Sequence[float],
        min_piece_size: int = 1,
    ) -> bool | int:
        """Latched cracks at one value, or at a batch of them in one pass.

        A list or tuple of values is a worker batch: the degenerate
        ones (see :meth:`_crackable`, judged as the pieces stand once
        the batch is latched) are dropped and the rest go to a single
        :meth:`CrackerIndex.ensure_cuts` under the write latches of
        exactly the pieces they split -- one latched multi-pivot pass
        instead of one latch round trip per pivot.  A scalar is the
        one-key case of the same protocol.  Revalidation after the
        grant compares latch keys, not ``PieceMap.version``: sibling
        batches cracking *other* pieces of this column bump the version
        legitimately, and only a target that moved under a key we do
        not hold forces a re-latch.

        Returns whether the crack happened for a scalar (``False`` when
        it degenerated), and the number of new cuts for a batch.
        """
        scalar = not isinstance(value, (list, tuple))
        values = (value,) if scalar else value
        index = self.index
        for _ in range(self.MAX_RETRIES):
            with index.lock:
                targets, keys = self._crackable(values, min_piece_size)
            if not targets:
                return False if scalar else 0
            try:
                with self.table.write_pieces(keys) as stalled:
                    if stalled:
                        self._note_stall()
                    with index.lock:
                        targets, fresh = self._crackable(
                            values, min_piece_size
                        )
                        if not fresh <= keys:
                            continue  # re-latch on the fresh keys
                        before = index.crack_count
                        index.ensure_cuts(targets)
                        cracked = index.crack_count - before
                        return cracked > 0 if scalar else cracked
            except LatchTimeout:
                self._note_stall()
                faults.recovered("latch.acquire", "crack re-acquired")
                # Yield before re-latching: a thread waiting on a piece
                # this batch just released gets to take it first.
                wall_sleep(0)
                continue
        raise ConcurrencyError(
            f"crack at {value} could not stabilise its piece latches "
            f"after {self.MAX_RETRIES} retries"
        )

    def exclusive(self):
        """Whole-index latch for actions that scan or sort pieces."""
        return self.table.exclusive()
