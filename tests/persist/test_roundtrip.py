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
from repro.engine.query import RangeQuery
from repro.errors import PersistError
from repro.persist import SnapshotManager, restore_snapshot
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
            # Cracker columns are copy-on-write views: writable in
            # memory, never written back to the snapshot files.
            assert isinstance(index.values, np.memmap)
            assert index.values.flags.writeable

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
    def test_snapshot_with_workers_racing_the_workload(self, tmp_path):
        trace, reference = _trace()
        cut = len(trace) // 2

        db = _fresh_db()
        session = db.session("holistic", seed=SEED, num_workers=2)
        kernel = session.strategy
        fingerprint = TraceFingerprint()
        kernel.start_workers()
        kernel.submit_tuning(150)
        try:
            _replay_span(db, session, trace, fingerprint, 0, cut)
            manager = SnapshotManager(tmp_path, db, strategy=kernel,
                                      session=session)
            # Snapshots need settled state: capture is refused while
            # workers may be mid-crack.
            with pytest.raises(PersistError, match="tuning workers"):
                manager.checkpoint()
            kernel.drain_workers()
        finally:
            kernel.stop_workers()
        manager.checkpoint(extra={"cursor": cut})
        del db, session, kernel, manager

        restored = restore_snapshot(tmp_path)
        kernel = restored.strategy
        assert kernel.worker_pool is not None  # num_workers survived
        kernel.start_workers()
        kernel.submit_tuning(150)
        try:
            _replay_span(
                restored.db, restored.session, trace, fingerprint, cut,
                len(trace),
            )
            kernel.drain_workers()
        finally:
            kernel.stop_workers()
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
        assert back.idle_windows == live.idle_windows
        assert (
            restored.session.export_state()["cumulative_s"]
            == session.export_state()["cumulative_s"]
        )

    def test_unsupported_strategy_is_refused(self, tmp_path):
        db = _fresh_db()
        session = db.session("adaptive", variant="mdd1r")
        session.run_query(RangeQuery(ColumnRef("R", "A1"), 10.0, 1000.0))
        manager = SnapshotManager(tmp_path, db, strategy=session.strategy)
        with pytest.raises(PersistError, match="not .*supported"):
            manager.checkpoint()


def test_pivots_beyond_2_53_round_trip_exactly(tmp_path):
    """Regression: pivots -- the piece map's and the crack tape's --
    were written as float64, so a pivot beyond 2^53 came back rounded
    and every tape pivot came back a float.  On an int64 column of
    2^60 +- 600 a checkpoint restores the very same pivots and tape
    records, answers like the reference and re-cracks nothing."""
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

    def typed(records):
        return [(record, type(record.pivot)) for record in records]

    live_records = session.strategy.indexes[ref].tape.records()
    assert {type(record.pivot) for record in live_records} == {int}
    assert typed(index.tape.records()) == typed(live_records)
    reference = ReferenceEngine(restored.db, [ref])
    for query in queries:
        result = restored.session.run_query(query)
        assert np.array_equal(
            np.sort(result.values()),
            reference.query(ref, query.low, query.high),
        )
    assert index.piece_map.pivots() == pivots  # zero re-cracks
    index.check_invariants()


def test_tape_of_an_older_generation_restores_float_pivots(
    tmp_path, monkeypatch
):
    """A generation written before integer tape pivots were kept
    exactly has no ``int_pivots`` array: it restores, its pivots the
    floats it stored."""
    from repro.cracking.tape import CrackTape
    from repro.persist import snapshot

    db = Database(clock=SimClock())
    db.add_table(build_paper_table(rows=2000, columns=1, seed=3))
    session = db.session("adaptive")
    ref = ColumnRef("R", "A1")
    for low in (1e6, 4e7, 7e7):
        session.run_query(RangeQuery(ref, low, low + 9e6))
    export = CrackTape.export_state

    def export_as_before(tape):
        state = export(tape)
        del state["int_pivots"]
        state["pivots"] = [float(r.pivot) for r in tape.records()]
        return state

    with monkeypatch.context() as patch:
        patch.setattr(CrackTape, "export_state", export_as_before)
        patch.setattr(
            snapshot,
            "_TAPE_NUMERIC",
            tuple(e for e in snapshot._TAPE_NUMERIC if e[0] != "int_pivots"),
        )
        SnapshotManager(
            tmp_path, db, strategy=session.strategy, session=session
        ).checkpoint()

    restored = restore_snapshot(tmp_path)
    live = session.strategy.indexes[ref].tape.records()
    back = restored.strategy.indexes[ref].tape.records()
    assert len(back) == len(live) == 6
    assert [type(r.pivot) for r in back] == [float] * 6
    assert [r.pivot for r in back] == [float(r.pivot) for r in live]


def test_float64_pivots_of_an_older_generation_restore_normalised():
    """A generation written when pivots were float64 restores with its
    pivots normalised like any bound; one that lands on its
    predecessor's key, or past the top, opened an empty piece and is
    dropped, its two pieces merged."""
    from repro.cracking.piecemap import PieceMap
    from repro.persist.snapshot import _pivots_in

    pivots, cuts = _pivots_in(
        np.dtype(np.int64),
        np.array([-np.inf, 3.2, 3.7, 10.0, np.inf]),
        np.array([0, 4, 4, 9, 12]),
    )
    assert pivots.dtype == np.int64
    assert pivots.tolist() == [-(2**63), 4, 10]
    assert cuts.tolist() == [0, 4, 9]
    PieceMap.from_state(12, pivots, cuts, np.dtype(np.int64))
