"""The differential fingerprint oracle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.session import make_strategy
from repro.serving import ServingFrontend
from repro.simtime.clock import SimClock
from repro.storage.catalog import ColumnRef
from repro.storage.database import Database
from repro.storage.loader import (
    build_paper_table,
    generate_uniform_float_column,
)
from repro.bench.oracle import (
    OracleError,
    ReferenceEngine,
    TraceFingerprint,
    drive_trace,
    reference_results,
    replay_batched,
    replay_maintained,
    replay_sequential,
    replay_serving,
)
from repro.workload.generators import TraceOp
from repro.workload.patterns import MixedPattern

A1 = ColumnRef("R", "A1")
F1 = ColumnRef("R", "F1")


def _db(rows: int = 2_000, seed: int = 5) -> Database:
    db = Database(clock=SimClock())
    table = build_paper_table(rows=rows, columns=2, seed=seed)
    table.add_column(
        generate_uniform_float_column("F1", rows=rows, seed=seed + 9)
    )
    db.add_table(table)
    return db


def _trace(db: Database, ops: int = 120, **overrides) -> list[TraceOp]:
    options = dict(
        columns=["A1", "A2", "F1"],
        op_count=ops,
        write_ratio=0.3,
        batch_size=8,
        burst=3,
        seed=3,
    )
    options.update(overrides)
    return MixedPattern(**options).ops(db.table("R"))


def test_reference_engine_matches_brute_force() -> None:
    db = _db(rows=300)
    engine = ReferenceEngine(db, [A1])
    base = db.column("R", "A1").values.copy()
    engine.apply(TraceOp("insert", A1, values=(7, 500_000)))
    engine.apply(
        TraceOp(
            "delete",
            A1,
            values=(int(base[3]), int(base[9])),
            positions=(3, 9),
        )
    )
    got = engine.apply(TraceOp("query", A1, 0.0, 1e9))
    alive = np.delete(base, [3, 9])
    want = np.sort(np.concatenate([alive, [7, 500_000]]))
    assert np.array_equal(got, want)


def test_fingerprint_is_order_sensitive() -> None:
    a, b = TraceFingerprint(), TraceFingerprint()
    a.note_query(np.array([1, 2]))
    a.note_query(np.array([3]))
    b.note_query(np.array([3]))
    b.note_query(np.array([1, 2]))
    assert a.as_dict()["result_sha256"] != b.as_dict()["result_sha256"]


def test_fingerprint_normalizes_dtype() -> None:
    a, b = TraceFingerprint(), TraceFingerprint()
    a.note_query(np.array([1, 2], dtype=np.int32))
    b.note_query(np.array([1, 2], dtype=np.int64))
    assert a.as_dict()["result_sha256"] == b.as_dict()["result_sha256"]


def test_all_drivers_match_reference() -> None:
    db0 = _db()
    trace = _trace(db0)
    refs = [ColumnRef("R", c) for c in ("A1", "A2", "F1")]
    expected, reference = reference_results(db0, refs, trace)
    assert reference["queries"] + reference["updates"] == len(trace)

    runs = {}
    db = _db()
    runs["sequential"] = replay_sequential(
        db, db.session("adaptive"), trace, expected, reference
    )
    db = _db()
    runs["batched"] = replay_batched(
        db, db.session("adaptive"), trace, expected, reference, window=16
    )
    db = _db()
    frontend = ServingFrontend(db, make_strategy("holistic", db, seed=5))
    runs["serving"] = replay_serving(
        db, frontend, trace, expected, reference, clients=2, window=16
    )
    db = _db()
    runs["maintained"] = replay_maintained(db, trace, expected, reference)

    for label, run in runs.items():
        assert run.matches_reference, label
        assert run.fingerprint == reference, label


def test_corrupted_result_raises_oracle_error() -> None:
    db0 = _db(rows=600)
    trace = _trace(db0, ops=40)
    expected, reference = reference_results(
        db0, [ColumnRef("R", c) for c in ("A1", "A2", "F1")], trace
    )
    # Corrupt one expected multiset: the engine's (correct) answer now
    # disagrees, which must surface as a divergence, not silence.
    victim = next(i for i, e in enumerate(expected) if len(e))
    expected[victim] = expected[victim][:-1]
    db = _db(rows=600)
    with pytest.raises(OracleError, match="rows"):
        replay_sequential(
            db, db.session("adaptive"), trace, expected, reference
        )


def test_short_run_is_rejected() -> None:
    db0 = _db(rows=600)
    trace = _trace(db0, ops=40, write_ratio=0.0)
    expected, reference = reference_results(
        db0, [ColumnRef("R", c) for c in ("A1", "A2", "F1")], trace
    )
    db = _db(rows=600)
    with pytest.raises(OracleError, match="answered"):
        replay_sequential(
            db, db.session("adaptive"), trace[:-1], expected, reference
        )


class _Answer:
    """A stub result: what ``drive_trace`` reads off an executor."""

    def __init__(self, values) -> None:
        self._values = np.asarray(values)
        self.count = len(self._values)

    def values(self) -> np.ndarray:
        return self._values


def _flush_trace() -> list[TraceOp]:
    query = TraceOp("query", A1, 0.0, 1e9)
    insert = TraceOp("insert", A1, values=(7,))
    return [query, query, insert, query, query, query, insert, query]


def test_update_flushes_the_open_window_first() -> None:
    db = _db(rows=300)
    pending = db.table("R").updates_for("A1")
    trace = _flush_trace()
    windows: list[tuple[int, int]] = []  # (queries, inserts staged so far)
    observed: list[tuple[int, bool]] = []

    def execute(ops):
        windows.append((len(ops), pending.pending_insert_count))
        return [_Answer([slot]) for slot in range(len(ops))]

    drive_trace(
        db,
        trace,
        execute,
        lambda slot, op, values: observed.append((slot, values is None)),
        window=3,
    )
    # The window of two is cut short by the insert, and every window
    # runs with exactly the updates that precede it in the trace.
    assert windows == [(2, 0), (3, 1), (1, 2)]
    assert observed == [(i, not op.is_query) for i, op in enumerate(trace)]


def test_drive_trace_honours_start_and_stop() -> None:
    db = _db(rows=300)
    observed: list[int] = []
    drive_trace(
        db,
        _flush_trace(),
        lambda ops: [_Answer([]) for _ in ops],
        lambda slot, op, values: observed.append(slot),
        window=2,
        start=1,
        stop=5,
    )
    assert observed == [1, 2, 3, 4]
    assert db.table("R").updates_for("A1").pending_insert_count == 1


def test_serving_hooks_run_through_the_shared_loop() -> None:
    """The chaos hooks: a malformed entry every Nth window that must
    come back empty, and a pump called once per served window."""
    db0 = _db()
    trace = _trace(db0)
    refs = [ColumnRef("R", c) for c in ("A1", "A2", "F1")]
    expected, reference = reference_results(db0, refs, trace)
    db = _db()
    frontend = ServingFrontend(db, make_strategy("holistic", db, seed=5))
    served: list[list[str]] = []
    serve_window = frontend.serve_window

    def spy(entries):
        served.append([entry.client for entry in entries])
        return serve_window(entries)

    frontend.serve_window = spy
    pumps: list[int] = []
    run = replay_serving(
        db,
        frontend,
        trace,
        expected,
        reference,
        clients=2,
        window=8,
        malform_every=3,
        pump=lambda: pumps.append(len(served)),
    )
    assert run.fingerprint == reference
    assert len(served) > 3
    assert pumps == list(range(1, len(served) + 1))
    for number, clients in enumerate(served):
        assert ("chaos" in clients) == (number % 3 == 0)
        assert clients.count("chaos") <= 1


def test_malformed_entry_that_returns_rows_is_an_oracle_error() -> None:
    db = _db(rows=300)
    trace = [TraceOp("query", A1, 0.0, 1e9)]
    expected, reference = reference_results(db, [A1], trace)

    class LeakyFrontend:
        """Answers every entry, the malformed one included, in full."""

        strategy = None
        lanes: dict = {}

        def add_client(self, name: str) -> None:
            self.lanes[name] = None

        def serve_window(self, entries):
            return [_Answer(expected[0]) for _ in entries]

    with pytest.raises(OracleError, match="malformed entry returned"):
        replay_serving(
            db, LeakyFrontend(), trace, expected, reference, malform_every=1
        )
