"""Unit tests for the cracker tape."""

from repro.cracking.piece import CrackOrigin
from repro.cracking.tape import CrackTape


def test_record_and_count():
    tape = CrackTape()
    tape.record(0.5, CrackOrigin.QUERY, 10.0, 4, 100)
    tape.record(0.7, CrackOrigin.TUNING, 20.0, 9, 50)
    tape.record(0.9, CrackOrigin.TUNING, 30.0, 2, 25)
    assert len(tape) == 3
    assert tape.count() == 3
    assert tape.count(CrackOrigin.QUERY) == 1
    assert tape.count(CrackOrigin.TUNING) == 2
    assert tape.count(CrackOrigin.MERGE) == 0


def test_last_and_since():
    tape = CrackTape()
    assert tape.last() is None
    tape.record(0.1, CrackOrigin.QUERY, 1.0, 0, 10)
    tape.record(0.2, CrackOrigin.QUERY, 2.0, 1, 10)
    assert tape.last().pivot == 2.0
    fresh = tape.since(0.15)
    assert [r.pivot for r in fresh] == [2.0]


def test_iteration_preserves_order():
    tape = CrackTape()
    for i in range(5):
        tape.record(float(i), CrackOrigin.SORT, float(i), i, 1)
    assert [r.position for r in tape] == [0, 1, 2, 3, 4]
    assert [r.position for r in tape.records()] == [0, 1, 2, 3, 4]


def test_clear_resets_counts():
    tape = CrackTape()
    tape.record(0.1, CrackOrigin.MERGE, 1.0, 0, 10)
    tape.clear()
    assert len(tape) == 0
    assert tape.count(CrackOrigin.MERGE) == 0


def test_index_integration_records_origins(small_column, sim_clock):
    from repro.cracking.index import CrackerIndex
    import numpy as np

    index = CrackerIndex(small_column, clock=sim_clock)
    index.select_range(1_000_000, 2_000_000)
    index.random_crack(np.random.default_rng(0))
    assert index.tape.count(CrackOrigin.QUERY) == 2
    assert index.tape.count(CrackOrigin.TUNING) == 1
    # Timestamps come from the shared clock, monotonically.
    stamps = [r.timestamp for r in index.tape]
    assert stamps == sorted(stamps)


def test_worker_attribution_context():
    tape = CrackTape()
    tape.record(0.1, CrackOrigin.QUERY, 1.0, 0, 10)
    with tape.attribution(3):
        assert tape.current_worker() == 3
        tape.record(0.2, CrackOrigin.TUNING, 2.0, 1, 9)
        with tape.attribution(None):
            tape.record(0.3, CrackOrigin.TUNING, 3.0, 2, 8)
    assert tape.current_worker() is None
    workers = [r.worker for r in tape.records()]
    assert workers == [None, 3, None]


def test_worker_repr_only_when_attributed():
    tape = CrackTape()
    plain = tape.record(0.1, CrackOrigin.QUERY, 1.0, 0, 10)
    assert "worker" not in repr(plain)
    attributed = tape.record(0.2, CrackOrigin.TUNING, 2.0, 1, 9, worker=2)
    assert "worker=2" in repr(attributed)


def test_default_tape_retains_everything():
    tape = CrackTape()
    for i in range(5):
        tape.record(float(i), CrackOrigin.QUERY, float(i), i, 10)
    assert len(tape) == tape.count() == 5


def test_log_is_equivalent_to_record():
    tape = CrackTape()
    raw = tape.log(0.5, CrackOrigin.QUERY, 10.0, 4, 100)
    assert raw == (0.5, CrackOrigin.QUERY, 10.0, 4, 100, None)
    assert tape.count(CrackOrigin.QUERY) == 1
    assert tape.records()[0].pivot == 10.0


def test_stall_counters_per_worker_and_total():
    tape = CrackTape()
    assert tape.stall_count() == 0
    tape.note_stall(1)
    tape.note_stall(1)
    with tape.attribution(2):
        tape.note_stall()  # falls back to the thread's attribution
    assert tape.stall_count(1) == 2
    assert tape.stall_count(2) == 1
    assert tape.stall_count() == 3
    tape.clear()
    assert tape.stall_count() == 0
