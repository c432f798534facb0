"""Answer checking, kept out of the timed spans.

A :class:`Verifier` is told about every op of a pass in order.  Right
after a read it takes the answer's row count and value sum (the result
is a view into the cracker column, which the next op may reorganise,
so this cannot wait); after the pass, :meth:`Verifier.finish` replays
the writes through the per-column :class:`~perfbench.inputs.Oracle`
and compares every read -- vectorized per run of reads between two
writes.  A sample of reads is additionally compared, row for row,
against ``repro.bench.oracle.ReferenceEngine``, the repo's naive
scan-based engine (a full scan per query, so only a sample fits the
time budget).  It copies every column and filters the copy per query
(+35 % resident memory on ``mixed_rw``, one or two heap extensions more
depending on the seed), so the workloads ask for it from the second
timed pass on: ``peak_rss_mb`` is read after the first.
"""

from __future__ import annotations

import numpy as np

from perfbench.inputs import Oracle


class Verifier:
    """Records up to ``capacity`` reads into preallocated arrays: the
    bookkeeping sits between timed ops, so it must not churn the heap
    (a Python list of boxed numbers per read measurably slowed the
    *next* query through cache pollution)."""

    def __init__(
        self,
        oracles: list[Oracle],
        capacity: int,
        reference: tuple[object, list] | None = None,
        reference_every: int = 0,
    ) -> None:
        """``reference`` is ``(db, refs)`` for the sampled
        ReferenceEngine cross-check; it requires the delta stores to be
        empty when the pass starts."""
        self._oracles = oracles
        self._reference = reference
        self._reference_every = reference_every
        self.reads = 0
        self._columns = np.empty(capacity, dtype=np.int64)
        self._lows = np.empty(capacity, dtype=np.float64)
        self._highs = np.empty(capacity, dtype=np.float64)
        self._counts = np.empty(capacity, dtype=np.int64)
        self._sums = np.empty(capacity, dtype=np.int64)
        #: (reads seen so far, column, "insert"/"delete", payload)
        self._writes: list[tuple[int, int, str, np.ndarray]] = []
        self._samples: dict[int, np.ndarray] = {}

    def read(self, column: int, low: float, high: float, result) -> None:
        values = result.values()
        slot = self.reads
        self.reads = slot + 1
        self._columns[slot] = column
        self._lows[slot] = low
        self._highs[slot] = high
        self._counts[slot] = result.count
        self._sums[slot] = values.sum(dtype=np.int64)
        if self._reference_every and slot % self._reference_every == 0:
            self._samples[slot] = np.sort(values).astype(np.int64)

    def insert(self, column: int, values: np.ndarray) -> None:
        self._writes.append((self.reads, column, "insert", values))

    def delete(self, column: int, positions: np.ndarray) -> None:
        self._writes.append((self.reads, column, "delete", positions))

    def result_rows(self) -> int:
        return int(self._counts[: self.reads].sum())

    def finish(self) -> int:
        """Number of reads whose answer was wrong."""
        done = slice(0, self.reads)
        columns = self._columns[done]
        lows = self._lows[done]
        highs = self._highs[done]
        counts = self._counts[done]
        sums = self._sums[done]
        wrong = np.zeros(len(counts), dtype=bool)
        cursor = 0
        # A sentinel write at the end closes the last run of reads.
        for upto, column, kind, payload in [
            *self._writes, (len(counts), -1, "", None)
        ]:
            if upto > cursor:
                run = slice(cursor, upto)
                for c in np.unique(columns[run]).tolist():
                    picked = np.flatnonzero(columns[run] == c) + cursor
                    want_count, want_sum = self._oracles[c].expect(
                        lows[picked], highs[picked]
                    )
                    wrong[picked] = (counts[picked] != want_count) | (
                        sums[picked] != want_sum
                    )
                cursor = upto
            if kind == "insert":
                self._oracles[column].insert(payload)
            elif kind == "delete":
                self._oracles[column].delete(payload)
        if self._samples:
            wrong |= self._reference_mismatches(lows, highs, columns)
        return int(wrong.sum())

    def _reference_mismatches(
        self, lows: np.ndarray, highs: np.ndarray, columns: np.ndarray
    ) -> np.ndarray:
        from repro.bench.oracle import ReferenceEngine
        from repro.workload.generators import TraceOp

        db, refs = self._reference
        engine = ReferenceEngine(db, refs)
        wrong = np.zeros(len(lows), dtype=bool)
        writes = iter(self._writes)
        pending = next(writes, None)
        for slot in sorted(self._samples):
            while pending is not None and pending[0] <= slot:
                _, column, kind, payload = pending
                if kind == "insert":
                    op = TraceOp(
                        "insert", refs[column], values=tuple(payload.tolist())
                    )
                else:
                    op = TraceOp(
                        "delete", refs[column],
                        positions=tuple(payload.tolist()),
                    )
                engine.apply(op)
                pending = next(writes, None)
            want = engine.query(
                refs[columns[slot]], float(lows[slot]), float(highs[slot])
            )
            wrong[slot] = not np.array_equal(self._samples[slot], want)
        return wrong
