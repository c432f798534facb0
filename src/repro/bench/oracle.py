"""The differential fingerprint oracle for mixed read/write traces.

Adaptive indexes corrupt silently: a misplaced ripple merge or a
pending-store bound off by one ulp changes a handful of result rows
without crashing anything.  Following the concurrency-control analysis
of adaptive indexing (Graefe et al., PAPERS.md), this module replays
any interleaved insert/delete/query trace -- a list of
:class:`~repro.workload.generators.TraceOp` -- through a **naive
sorted-array reference engine** and through each of the kernel's real
execution paths, asserting per query that the result multisets are
bit-identical and, at the end of every run, that the touched indexes'
piece-map invariants still hold.

One loop, :func:`drive_trace`, walks a trace for every caller: it
buffers consecutive queries into windows, flushes the open window
before every update (so each query sees exactly the updates staged
before it in trace order), stages updates through
:func:`stage_update`, hands each window to an *executor* and each
result to an *observer*.  Four executors cover every path a query can
take today:

* :func:`replay_sequential` -- ``Session.run_query`` (per-query
  ``apply_pending`` consultation);
* :func:`replay_batched` -- ``Session.run_batch`` windows (the shared
  physical pass, then ``Session.run_window`` over the
  ``CrackSelectBatch`` replay of ``cracking/batch``);
* :func:`replay_serving` -- ``ServingFrontend.serve_window`` with the
  window's queries dealt across client lanes, each lane's share run
  through the same ``Session.run_window`` over its own
  ``DetachedCrackReplay`` per column; tuning workers may race the
  loop, started by the caller;
* :func:`replay_maintained` -- ``MaintainedCrackerIndex``, the ripple
  merge path that physically consumes the delta stores
  (``take_*_in_range`` + ``merge_inserts``/``merge_deletes``).

Each of them observes with a differ against the reference and
produces a :class:`TraceFingerprint`; a run is correct iff its digest
equals the reference digest, which makes ``bench mixed`` a
machine-checkable correctness proof.  ``bench snapshot`` and
``bench chaos`` drive the same loop with a resumable chained digest
as the observer (:func:`repro.bench.snapshot.replay_digest`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.cracking.updates import MaintainedCrackerIndex
from repro.engine.query import RangeQuery
from repro.errors import BenchmarkError
from repro.serving.window import WindowEntry
from repro.storage.catalog import ColumnRef
from repro.storage.database import Database
from repro.workload.generators import TraceOp


class OracleError(BenchmarkError):
    """An engine result diverged from the naive reference."""


class TraceFingerprint:
    """Order-sensitive digest of one trace run's query results.

    Hashes every query's *sorted* result multiset (as float64, so an
    int32-narrowed cracker column fingerprints identically to its
    int64 reference) plus its slot in the trace.  Two runs of the same
    trace agree iff every query returned the same multiset.
    """

    def __init__(self) -> None:
        self._state = hashlib.sha256()
        self.queries = 0
        self.updates = 0
        self.result_rows = 0

    def note_query(self, values: np.ndarray) -> np.ndarray:
        """Fold one query result in; returns the sorted multiset."""
        ordered = np.sort(np.asarray(values))
        self._state.update(np.int64(self.queries).tobytes())
        self._state.update(ordered.astype(np.float64).tobytes())
        self.queries += 1
        self.result_rows += len(ordered)
        return ordered

    def note_update(self) -> None:
        self.updates += 1

    def as_dict(self) -> dict[str, object]:
        return {
            "queries": self.queries,
            "updates": self.updates,
            "result_rows": self.result_rows,
            "result_sha256": self._state.hexdigest(),
        }


class ReferenceEngine:
    """A naive, trivially-correct engine over sorted base arrays.

    Holds a private copy of every traced column: a base array with a
    liveness mask (deletes kill base positions) plus the staged insert
    values.  A query is one vectorized predicate pass over both -- no
    cracking, no delta stores, no merge logic to get wrong.
    """

    def __init__(self, db: Database, refs: list[ColumnRef]) -> None:
        self._base: dict[ColumnRef, np.ndarray] = {}
        self._live: dict[ColumnRef, np.ndarray] = {}
        self._extra: dict[ColumnRef, list[np.ndarray]] = {}
        for ref in refs:
            column = db.column(ref.table, ref.column)
            self._base[ref] = column.values.copy()
            self._live[ref] = np.ones(column.row_count, dtype=bool)
            self._extra[ref] = []

    def dtype_for(self, ref: ColumnRef) -> np.dtype:
        return self._base[ref].dtype

    def apply(self, op: TraceOp) -> np.ndarray | None:
        """Apply one trace op; returns the sorted result for queries."""
        if op.kind == "query":
            return self.query(op.ref, op.low, op.high)
        if op.kind == "insert":
            self._extra[op.ref].append(
                np.asarray(op.values, dtype=self.dtype_for(op.ref))
            )
            return None
        if op.kind == "delete":
            self._live[op.ref][list(op.positions)] = False
            return None
        raise BenchmarkError(f"unknown trace op kind {op.kind!r}")

    def query(self, ref: ColumnRef, low: object, high: object) -> np.ndarray:
        values = np.concatenate(
            [self._base[ref][self._live[ref]], *self._extra[ref]]
        )
        # Compared as Python objects: an int against a float bound is
        # exact, where numpy rounds an int64 beyond 2^53 to float64.
        exact = values.astype(object)
        with np.errstate(invalid="ignore"):  # a NaN bound matches nothing
            return np.sort(values[(exact >= low) & (exact < high)])


def reference_results(
    db: Database, refs: list[ColumnRef], trace: list[TraceOp]
) -> tuple[list[np.ndarray], dict[str, object]]:
    """Serial reference replay: expected result per query, in trace
    order, plus the reference fingerprint."""
    engine = ReferenceEngine(db, refs)
    fingerprint = TraceFingerprint()
    expected: list[np.ndarray] = []
    for op in trace:
        result = engine.apply(op)
        if result is None:
            fingerprint.note_update()
        else:
            expected.append(fingerprint.note_query(result))
    return expected, fingerprint.as_dict()


@dataclass(slots=True)
class OracleRun:
    """One engine driver's outcome against the reference."""

    fingerprint: dict[str, object]
    reference: dict[str, object]

    @property
    def matches_reference(self) -> bool:
        return (
            self.fingerprint["result_sha256"]
            == self.reference["result_sha256"]
        )


class _Differ:
    """The oracle's observer: per-query comparison and bookkeeping."""

    __slots__ = ("expected", "reference", "fingerprint", "label", "cursor")

    def __init__(
        self,
        expected: list[np.ndarray],
        reference: dict[str, object],
        label: str,
    ) -> None:
        self.expected = expected
        self.reference = reference
        self.fingerprint = TraceFingerprint()
        self.label = label
        self.cursor = 0

    def observe(
        self, slot: int, op: TraceOp, values: np.ndarray | None
    ) -> None:
        if values is None:
            self.fingerprint.note_update()
            return
        got = self.fingerprint.note_query(values)
        want = self.expected[self.cursor]
        self.cursor += 1
        if len(got) != len(want) or not np.array_equal(
            got.astype(np.float64), want.astype(np.float64)
        ):
            raise OracleError(
                f"{self.label}: query #{self.cursor} on "
                f"{op.ref.table}.{op.ref.column} "
                f"[{op.low}, {op.high}) returned {len(got)} rows, "
                f"reference has {len(want)} "
                f"(first rows: got {got[:5].tolist()}, "
                f"want {want[:5].tolist()})"
            )

    def finish(self, indexes: Iterable) -> OracleRun:
        if self.cursor != len(self.expected):
            raise OracleError(
                f"{self.label}: answered {self.cursor} of "
                f"{len(self.expected)} reference queries"
            )
        # Tuning workers may still be cracking (callers drain them
        # afterwards); check_invariants takes each index's lock.
        for index in indexes:
            index.check_invariants()
        return OracleRun(self.fingerprint.as_dict(), self.reference)


def stage_update(db: Database, op: TraceOp) -> None:
    """Stage one insert/delete op into its column's delta store."""
    pending = db.catalog.table(op.ref.table).updates_for(op.ref.column)
    if op.kind == "insert":
        pending.stage_inserts(np.asarray(op.values))
    else:
        pending.stage_deletes(
            np.asarray(op.positions, dtype=np.int64),
            np.asarray(op.values),
        )


def drive_trace(
    db: Database,
    trace: Sequence[TraceOp],
    execute: Callable[[list[TraceOp]], Sequence],
    observe: Callable[[int, TraceOp, np.ndarray | None], None],
    window: int = 1,
    start: int = 0,
    stop: int | None = None,
    after_window: Callable[[], None] | None = None,
) -> None:
    """Walk ``trace[start:stop]`` through one execution path.

    Consecutive queries coalesce into windows of up to ``window``
    entries (1 = one at a time); ``execute`` answers a window with one
    result per query, in order.  An update flushes the open window
    first and is staged between windows -- the serving loop requires
    delta stores unmutated for the duration of a window -- which still
    interleaves it at its exact trace position.  ``observe(slot, op,
    values)`` sees every op once it has taken effect, ``values`` being
    the query's result values or ``None`` for an update;
    ``after_window`` runs after each executed window.
    """
    buffered: list[int] = []

    def flush() -> None:
        if not buffered:
            return
        results = execute([trace[slot] for slot in buffered])
        for slot, result in zip(buffered, results):
            observe(slot, trace[slot], result.values())
        buffered.clear()
        if after_window is not None:
            after_window()

    for slot in range(start, len(trace) if stop is None else stop):
        op = trace[slot]
        if op.is_query:
            buffered.append(slot)
            if len(buffered) >= window:
                flush()
        else:
            flush()
            stage_update(db, op)
            observe(slot, op, None)
    flush()


# -- executors ----------------------------------------------------------------


def _range_query(op: TraceOp) -> RangeQuery:
    return RangeQuery(op.ref, op.low, op.high)


def sequential_executor(session) -> Callable[[list[TraceOp]], list]:
    """``Session.run_query``, one query at a time."""
    return lambda ops: [session.run_query(_range_query(op)) for op in ops]


def _malformed_query(ref: ColumnRef) -> RangeQuery:
    """An inverted-range query smuggled past ``RangeQuery`` validation
    -- what a buggy or hostile client driver would hand the wire."""
    query = RangeQuery.__new__(RangeQuery)
    object.__setattr__(query, "ref", ref)
    object.__setattr__(query, "low", 9.0)
    object.__setattr__(query, "high", 1.0)
    return query


def _serving_executor(
    frontend, clients: int, malform_every: int, label: str
) -> Callable[[list[TraceOp]], list]:
    """``ServingFrontend.serve_window`` with the window's queries dealt
    round-robin over ``clients`` oracle lanes (each lane's own order
    preserved, as the window former guarantees)."""
    for i in range(clients):
        if f"oracle-{i}" not in frontend.lanes:
            frontend.add_client(f"oracle-{i}")
    if malform_every:
        frontend.add_client("chaos")
    sequences = [0] * clients
    windows = 0

    def execute(ops: list[TraceOp]) -> list:
        nonlocal windows
        entries = []
        for i, op in enumerate(ops):
            lane = i % clients
            entries.append(
                WindowEntry(f"oracle-{lane}", sequences[lane], _range_query(op))
            )
            sequences[lane] += 1
        if malform_every and windows % malform_every == 0:
            entries.append(
                WindowEntry(
                    "chaos",
                    windows // malform_every,
                    _malformed_query(ops[0].ref),
                )
            )
        windows += 1
        results = frontend.serve_window(entries)
        for rejected in results[len(ops):]:
            if rejected.count:
                raise OracleError(
                    f"{label}: malformed entry returned {rejected.count} "
                    "rows; expected an empty rejection"
                )
        return results[: len(ops)]

    return execute


def _strategy_indexes(strategy) -> list:
    return list(getattr(strategy, "indexes", {}).values())


def replay_sequential(
    db: Database,
    session,
    trace: list[TraceOp],
    expected: list[np.ndarray],
    reference: dict[str, object],
    label: str = "sequential",
) -> OracleRun:
    """Drive the trace through ``Session.run_query``, one op at a time."""
    differ = _Differ(expected, reference, label)
    drive_trace(db, trace, sequential_executor(session), differ.observe)
    return differ.finish(_strategy_indexes(session.strategy))


def replay_batched(
    db: Database,
    session,
    trace: list[TraceOp],
    expected: list[np.ndarray],
    reference: dict[str, object],
    window: int = 24,
    label: str = "batched",
) -> OracleRun:
    """Drive the trace through ``Session.run_batch`` windows."""

    def execute(ops: list[TraceOp]) -> list:
        return session.run_batch([_range_query(op) for op in ops])

    differ = _Differ(expected, reference, label)
    drive_trace(db, trace, execute, differ.observe, window=window)
    return differ.finish(_strategy_indexes(session.strategy))


def replay_serving(
    db: Database,
    frontend,
    trace: list[TraceOp],
    expected: list[np.ndarray],
    reference: dict[str, object],
    clients: int = 2,
    window: int = 24,
    label: str = "serving",
    malform_every: int = 0,
    pump: Callable[[], None] | None = None,
) -> OracleRun:
    """Drive the trace through ``ServingFrontend.serve_window``.

    Runs of consecutive queries become cross-session windows over
    ``clients`` lanes.  Two hooks serve ``bench chaos``:
    ``malform_every`` appends a malformed entry from a separate
    ``chaos`` client to every Nth window (its result must come back
    empty); ``pump`` is called once per served window (used to keep
    tuning workers fed).
    """
    differ = _Differ(expected, reference, label)
    drive_trace(
        db,
        trace,
        _serving_executor(frontend, clients, malform_every, label),
        differ.observe,
        window=window,
        after_window=pump,
    )
    return differ.finish(_strategy_indexes(frontend.strategy))


def replay_maintained(
    db: Database,
    trace: list[TraceOp],
    expected: list[np.ndarray],
    reference: dict[str, object],
    label: str = "maintained",
) -> OracleRun:
    """Drive the trace through :class:`MaintainedCrackerIndex`.

    This is the ripple-merge path: every select physically consumes
    the overlapping slice of the column's delta store
    (``take_*_in_range``) and merges it into the cracker column, so
    pending entries flow through ``merge_inserts``/``merge_deletes``
    instead of being consulted read-only.
    """
    indexes: dict[ColumnRef, MaintainedCrackerIndex] = {}

    def index_for(ref: ColumnRef) -> MaintainedCrackerIndex:
        index = indexes.get(ref)
        if index is None:
            table = db.catalog.table(ref.table)
            index = MaintainedCrackerIndex(
                table.column(ref.column),
                table.updates_for(ref.column),
                clock=db.clock,
            )
            indexes[ref] = index
        return index

    def execute(ops: list[TraceOp]) -> list:
        return [index_for(op.ref).select_range(op.low, op.high) for op in ops]

    differ = _Differ(expected, reference, label)
    drive_trace(db, trace, execute, differ.observe)
    return differ.finish(indexes.values())
