"""Snapshot round trips through the differential fingerprint oracle.

Each test replays one interleaved read/write trace twice over:

* the naive sorted-array reference engine, start to finish, giving the
  expected per-run digest;
* a real engine path that is **checkpointed mid-trace, discarded, and
  restored from disk** before finishing the trace.

The combined fingerprint of the interrupted run must equal the
reference digest bit for bit -- a restore that loses a staged update,
a piece-map cut or one clock tick shows up as a digest mismatch.
Restored indexes must also still pass ``check_invariants``, and piece
maps must come back exactly as refined as they were captured (the
zero-re-crack restart claim).
"""

import numpy as np
import pytest

from repro.bench.oracle import (
    TraceFingerprint,
    drive_trace,
    reference_results,
    sequential_executor,
    stage_update,
)
from repro.config import TINY
from repro.engine.query import RangeQuery
from repro.errors import PersistError
from repro.persist import SnapshotManager, read_manifest, restore_snapshot
from repro.serving import ServingFrontend
from repro.serving.window import WindowEntry
from repro.simtime.clock import SimClock
from repro.storage.catalog import ColumnRef
from repro.storage.database import Database
from repro.storage.loader import build_paper_table
from repro.workload.patterns import MixedPattern

ROWS = 12_000
OPS = 160
SEED = 42
DOMAIN = (1.0, 100_000_000.0)
COLUMNS = ("A1", "A2")


def _fresh_db() -> Database:
    db = Database(clock=SimClock())
    db.add_table(build_paper_table(rows=ROWS, columns=2, seed=SEED))
    return db


def _trace():
    pattern = MixedPattern(
        columns=list(COLUMNS),
        domain_low=DOMAIN[0],
        domain_high=DOMAIN[1],
        op_count=OPS,
        write_ratio=0.25,
        batch_size=8,
        seed=SEED,
    )
    db = _fresh_db()
    trace = pattern.ops(db.table("R"))
    _, reference = reference_results(db, pattern.refs(), trace)
    return trace, reference


def _replay_span(db, session, trace, fingerprint, start, stop) -> None:
    def observe(slot, op, values) -> None:
        if values is None:
            fingerprint.note_update()
        else:
            fingerprint.note_query(values)

    drive_trace(
        db, trace, sequential_executor(session), observe, start=start, stop=stop
    )


def _assert_digest(fingerprint: TraceFingerprint, reference: dict) -> None:
    assert fingerprint.as_dict()["result_sha256"] == (
        reference["result_sha256"]
    )


class TestMidTraceRoundTrip:
    @pytest.mark.parametrize("strategy", ["holistic", "adaptive"])
    def test_restored_run_fingerprints_like_uninterrupted(
        self, tmp_path, strategy
    ):
        trace, reference = _trace()
        cut = len(trace) // 2

        db = _fresh_db()
        session = db.session(strategy, seed=SEED) if (
            strategy == "holistic"
        ) else db.session(strategy)
        fingerprint = TraceFingerprint()
        _replay_span(db, session, trace, fingerprint, 0, cut)
        if strategy == "holistic":
            session.idle(actions=40)
        manager = SnapshotManager(
            tmp_path, db, strategy=session.strategy, session=session,
            verify=True,
        )
        manager.checkpoint(extra={"cursor": cut})
        clock_at_cut = db.clock.now()
        captured_pieces = {
            ref: index.piece_count
            for ref, index in session.strategy.indexes.items()
        }
        del db, session  # the restart boundary: live objects are gone

        restored = restore_snapshot(tmp_path, verify=True)
        assert restored.extra == {"cursor": cut}
        assert restored.db.clock.now() == clock_at_cut
        for ref, index in restored.strategy.indexes.items():
            # Zero re-crack: piece maps come back exactly as refined.
            assert index.piece_count == captured_pieces[ref]
            index.check_invariants()
        _replay_span(
            restored.db, restored.session, trace, fingerprint, cut,
            len(trace),
        )
        _assert_digest(fingerprint, reference)
        for index in restored.strategy.indexes.values():
            index.check_invariants()

    def test_base_columns_restore_as_readonly_memmaps(self, tmp_path):
        trace, _ = _trace()
        db = _fresh_db()
        session = db.session("adaptive")
        fingerprint = TraceFingerprint()
        _replay_span(db, session, trace, fingerprint, 0, 40)
        SnapshotManager(
            tmp_path, db, strategy=session.strategy, session=session
        ).checkpoint()

        def memmap_backed(array) -> bool:
            while array is not None:
                if isinstance(array, np.memmap):
                    return True
                array = getattr(array, "base", None)
            return False

        restored = restore_snapshot(tmp_path)
        column = restored.db.column("R", "A1")
        # coerce_array returns a plain ndarray *view* of the mapping
        # (no copy): the file stays the backing store.
        assert memmap_backed(column.values)
        assert not column.values.flags.writeable
        for index in restored.strategy.indexes.values():
            # A cracker column is rebuilt in memory from its base
            # column, sorted: no snapshot file backs it.
            assert not memmap_backed(index.values)
            assert index.values.flags.writeable
            assert np.all(index.values[:-1] <= index.values[1:])

    def test_repeated_bounds_do_not_recrack_after_restore(self, tmp_path):
        db = _fresh_db()
        session = db.session("adaptive")
        ref = ColumnRef("R", "A1")
        query = RangeQuery(ref, 10_000.0, 900_000.0)
        before = np.sort(session.run_query(query).values())
        SnapshotManager(
            tmp_path, db, strategy=session.strategy, session=session
        ).checkpoint()

        restored = restore_snapshot(tmp_path)
        index = restored.strategy.indexes[ref]
        cracks = index.crack_count
        again = np.sort(restored.session.run_query(query).values())
        assert index.crack_count == cracks
        assert np.array_equal(before, again)


class TestServingWindows:
    def test_snapshot_between_serving_windows(self, tmp_path):
        trace, reference = _trace()
        window = 16
        clients = 2

        def _serve(frontend, differ, ops, sequences):
            buffer = []

            def flush():
                if not buffer:
                    return
                entries = []
                for i, op in enumerate(buffer):
                    lane = i % clients
                    entries.append(
                        WindowEntry(
                            f"c{lane}",
                            sequences[lane],
                            RangeQuery(op.ref, op.low, op.high),
                        )
                    )
                    sequences[lane] += 1
                for op, result in zip(buffer, frontend.serve_window(entries)):
                    differ.note_query(result.values())
                buffer.clear()

            for op in ops:
                if op.is_query:
                    buffer.append(op)
                    if len(buffer) >= window:
                        flush()
                else:
                    flush()
                    stage_update(frontend.db, op)
                    differ.note_update()
            flush()

        cut = len(trace) // 2
        db = _fresh_db()
        kernel = db.session("holistic", seed=SEED).strategy
        frontend = ServingFrontend(db, kernel)
        for i in range(clients):
            frontend.add_client(f"c{i}")
        fingerprint = TraceFingerprint()
        sequences = [0] * clients
        _serve(frontend, fingerprint, trace[:cut], sequences)
        SnapshotManager(tmp_path, db, strategy=kernel).checkpoint()
        del db, kernel, frontend

        restored = restore_snapshot(tmp_path)
        frontend = ServingFrontend(restored.db, restored.strategy)
        for i in range(clients):
            frontend.add_client(f"c{i}")
        _serve(frontend, fingerprint, trace[cut:], sequences)
        _assert_digest(fingerprint, reference)
        for index in restored.strategy.indexes.values():
            index.check_invariants()


class TestTuningWorkers:
    def test_snapshot_of_a_worker_session_round_trips(self, tmp_path):
        """A snapshot taken after a worker-drained idle window restores
        the worker count, and the restored kernel's windows keep the
        answers those of an uninterrupted run."""
        trace, reference = _trace()
        cut = len(trace) // 2

        db = _fresh_db()
        session = db.session("holistic", seed=SEED, num_workers=2)
        fingerprint = TraceFingerprint()
        _replay_span(db, session, trace, fingerprint, 0, cut)
        session.idle(actions=150)
        SnapshotManager(
            tmp_path, db, strategy=session.strategy, session=session
        ).checkpoint(extra={"cursor": cut})
        del db, session

        restored = restore_snapshot(tmp_path)
        kernel = restored.strategy
        assert kernel.worker_pool is not None  # num_workers survived
        restored.session.idle(actions=150)
        _replay_span(
            restored.db, restored.session, trace, fingerprint, cut,
            len(trace),
        )
        _assert_digest(fingerprint, reference)
        for index in kernel.indexes.values():
            index.check_invariants()


class TestLearnedState:
    def test_monitor_ranking_and_tape_survive_restart(self, tmp_path):
        trace, _ = _trace()
        db = _fresh_db()
        session = db.session("holistic", seed=SEED)
        fingerprint = TraceFingerprint()
        _replay_span(db, session, trace, fingerprint, 0, len(trace) // 2)
        session.idle(actions=30)
        kernel = session.strategy
        SnapshotManager(
            tmp_path, db, strategy=kernel, session=session
        ).checkpoint()

        restored = restore_snapshot(tmp_path)
        live, back = kernel, restored.strategy
        assert back.monitor.export_state() == live.monitor.export_state()
        assert back.ranking.export_state() == live.ranking.export_state()
        assert back.tape.export_state() == live.tape.export_state()
        # The tape is meta counters: no checkpoint writes it an array.
        assert not [
            name for name in restored.manifest["arrays"]
            if name.startswith("tape/")
        ]
        assert back.idle_windows == live.idle_windows
        assert restored.session.export_state() == session.export_state()
        # The restored report continues the count and the cumulative
        # response before its first query, not from zero.
        report, back_report = session.report, restored.session.report
        assert back_report.query_count == report.query_count > 0
        assert back_report.total_response_s == report.total_response_s

    def test_unsupported_strategy_is_refused(self, tmp_path):
        db = _fresh_db()
        session = db.session("adaptive", variant="mdd1r")
        session.run_query(RangeQuery(ColumnRef("R", "A1"), 10.0, 1000.0))
        manager = SnapshotManager(tmp_path, db, strategy=session.strategy)
        with pytest.raises(PersistError, match="not .*supported"):
            manager.checkpoint()


def test_restore_keeps_the_writers_cost_model(tmp_path):
    """A restored engine prices like the one that wrote the snapshot:
    same model scale, same cache target, same next-select charge."""
    db = Database(clock=SimClock(TINY.cost_model()))
    db.add_table(build_paper_table(rows=TINY.rows, columns=1, seed=SEED))
    session = db.session("holistic", seed=SEED)
    session.run_query(RangeQuery(ColumnRef("R", "A1"), 1e7, 2e7))
    SnapshotManager(
        tmp_path, db, strategy=session.strategy, session=session
    ).checkpoint()

    restored = restore_snapshot(tmp_path)
    assert restored.db.cost_model.scale == db.cost_model.scale
    live, back = session.strategy.ranking, restored.strategy.ranking
    assert back.cache_target_elements == live.cache_target_elements
    assert back.refined_count() == live.refined_count()
    query = RangeQuery(ColumnRef("R", "A1"), 3e7, 4e7)
    spent = []
    for side in (session, restored.session):
        clock = side.db.clock
        before = clock.now()
        side.run_query(query)
        spent.append(clock.now() - before)
    assert spent[1] == spent[0]


def test_pivots_beyond_2_53_round_trip_exactly(tmp_path):
    """Regression: piece-map pivots were written as float64, so a
    pivot beyond 2^53 came back rounded.  On an int64 column of
    2^60 +- 600 a checkpoint restores the very same pivots and tape
    counts, answers like the reference and re-cracks nothing."""
    from repro.bench.oracle import ReferenceEngine
    from repro.storage.column import Column
    from repro.storage.table import Table

    big = 2**60
    table = Table("R")
    table.add_column(
        Column(
            "B",
            np.random.default_rng(7).permutation(
                np.arange(big - 600, big + 601)
            ),
        )
    )
    db = Database(clock=SimClock())
    db.add_table(table)
    ref = ColumnRef("R", "B")
    queries = [
        RangeQuery(ref, big + 1, big + 7),
        RangeQuery(ref, float(big), float(big + 512)),
        RangeQuery(ref, big - 299, big + 3),
    ]
    session = db.session("adaptive")
    for query in queries:
        session.run_query(query)
    piece_map = session.strategy.indexes[ref].piece_map
    pivots, cuts = piece_map.pivots(), piece_map.cuts()
    assert pivots[0] == big - 299  # not a float64's rounding of it
    SnapshotManager(
        tmp_path, db, strategy=session.strategy, session=session
    ).checkpoint()

    restored = restore_snapshot(tmp_path)
    index = restored.strategy.indexes[ref]
    assert index.piece_map.pivots() == pivots
    assert index.piece_map.cuts() == cuts
    assert {type(pivot) for pivot in pivots} == {int}
    assert {type(pivot) for pivot in index.piece_map.pivots()} == {int}
    live_tape = session.strategy.indexes[ref].tape
    assert index.tape.export_state() == live_tape.export_state()
    reference = ReferenceEngine(restored.db, [ref])
    for query in queries:
        result = restored.session.run_query(query)
        assert np.array_equal(
            np.sort(result.values()),
            reference.query(ref, query.low, query.high),
        )
    assert index.piece_map.pivots() == pivots  # zero re-cracks
    index.check_invariants()


def test_a_narrowed_column_restores_pivots_past_int32(tmp_path):
    """An int64 column that fits int32 is cracked, and restored, as
    int32; its cut check searches in int32, so pivots past either end
    of int32 and rows at both of its ends must restore exactly."""
    from repro.storage.column import Column
    from repro.storage.table import Table

    top, bottom = 2**31 - 1, -(2**31)
    table = Table("R")
    table.add_column(Column("B", np.array([top, bottom, 5, 7, top, 0, -3])))
    db = Database(clock=SimClock())
    db.add_table(table)
    ref = ColumnRef("R", "B")
    session = db.session("adaptive")
    for low, high in [(-(2**40), 2**40), (-(2**33), 6), (3, top),
                      (top, 2**35), (1, 2**31)]:
        session.run_query(RangeQuery(ref, low, high))
    live = session.strategy.indexes[ref]
    assert live.values.dtype == np.int32
    assert min(live.piece_map.pivots()) < bottom
    assert max(live.piece_map.pivots()) > top
    SnapshotManager(
        tmp_path, db, strategy=session.strategy, session=session
    ).checkpoint()

    index = restore_snapshot(tmp_path, fallback=False).strategy.indexes[ref]
    assert index.values.dtype == np.int32
    assert index.piece_map.pivots() == live.piece_map.pivots()
    assert index.piece_map.cuts() == live.piece_map.cuts()
    index.check_invariants()


def test_pivots_in_another_dtype_fail_the_generation(tmp_path):
    """Pivots are stored in their column's dtype; a generation with
    float64 pivots for an integer column, as format 1 wrote them, is
    corrupt, and the restore walks back past it."""
    from repro.persist.format import write_generation
    from repro.persist.snapshot import capture_state

    db = _fresh_db()
    session = db.session("adaptive")
    session.run_query(RangeQuery(ColumnRef("R", "A1"), 3e7, 6e7))
    arrays, meta, _ = capture_state(db, session.strategy, session)
    clean = write_generation(tmp_path, arrays, meta)
    name = "index/R/A1/pivots"
    assert arrays[name].dtype.kind == "i"
    arrays[name] = arrays[name].astype(np.float64)
    newest = write_generation(tmp_path, arrays, meta)

    with pytest.raises(PersistError, match="float64"):
        restore_snapshot(tmp_path, fallback=False)
    restored = restore_snapshot(tmp_path)
    assert restored.generation == clean
    assert restored.fallback_generations == [newest]
    live = session.strategy.indexes[ColumnRef("R", "A1")].piece_map
    back = restored.strategy.indexes[ColumnRef("R", "A1")].piece_map
    assert (back.pivots(), back.cuts()) == (live.pivots(), live.cuts())


def test_checkpoint_after_one_more_crack_writes_no_column(tmp_path):
    """A generation stores each index as its pivots and cuts: once both
    columns of a database have converged, the checkpoint after one
    more crack rewrites that index's piece map and the pending stores,
    and no array as long as a column."""
    db = _fresh_db()
    session = db.session("holistic")
    lows = np.linspace(0, 9e7, 24).tolist()
    for _ in range(2):
        for column in COLUMNS:
            for low in lows:
                session.run_query(
                    RangeQuery(ColumnRef("R", column), low, low + 5e5)
                )
    manager = SnapshotManager(
        tmp_path, db, strategy=session.strategy, session=session
    )
    manager.checkpoint()
    cracks = session.strategy.tape.count()
    session.run_query(RangeQuery(ColumnRef("R", "A1"), 1.5e6, 2.5e6))
    assert session.strategy.tape.count() == cracks + 2
    result = manager.checkpoint()
    entries = read_manifest(tmp_path, result.generation)["arrays"]
    fresh = {
        name: entry["shape"]
        for name, entry in entries.items()
        if entry["generation"] == result.generation
    }
    assert sorted(name for name in fresh if name.startswith("index/")) == [
        "index/R/A1/cuts", "index/R/A1/pivots",
    ]
    assert result.arrays_written == len(fresh) == 8
    assert all(shape[0] < ROWS for shape in fresh.values()), fresh
    assert not any(name.endswith("/values") for name in entries)
