"""Unit tests for the cracker tape."""

import tracemalloc

from repro.cracking.piece import CrackOrigin
from repro.cracking.tape import CrackTape


def test_record_and_count():
    tape = CrackTape()
    tape.record(CrackOrigin.QUERY)
    tape.record(CrackOrigin.TUNING)
    tape.record(CrackOrigin.TUNING)
    assert tape.count() == 3
    assert tape.count(CrackOrigin.QUERY) == 1
    assert tape.count(CrackOrigin.TUNING) == 2
    assert tape.count(CrackOrigin.MERGE) == 0


def test_index_integration_records_origins(small_column, sim_clock):
    from repro.cracking.index import CrackerIndex
    import numpy as np

    index = CrackerIndex(small_column, clock=sim_clock)
    index.select_range(1_000_000, 2_000_000)
    index.random_crack(np.random.default_rng(0))
    assert index.tape.count(CrackOrigin.QUERY) == 2
    assert index.tape.count(CrackOrigin.TUNING) == 1
    assert index.tape.count() == index.crack_count == 3


def test_worker_attribution_context():
    tape = CrackTape()
    tape.note_stall()
    with tape.attribution(3):
        assert tape.current_worker() == 3
        tape.note_stall()
        with tape.attribution(None):
            assert tape.current_worker() is None
            tape.note_stall()
        tape.note_stall()
    assert tape.current_worker() is None
    assert tape.stall_count(None) == 2
    assert tape.stall_count(3) == 2


def test_log_is_equivalent_to_record():
    logged, recorded = CrackTape(), CrackTape()
    logged.log(CrackOrigin.QUERY)
    logged.log(CrackOrigin.QUERY, 2)
    for _ in range(3):
        recorded.record(CrackOrigin.QUERY)
    assert logged.export_state() == recorded.export_state()
    assert logged.count(CrackOrigin.QUERY) == logged.count() == 3


def test_logging_retains_no_history():
    """The tape is counters: 100k cracks keep its footprint constant."""
    tape = CrackTape()
    tape.log(CrackOrigin.QUERY)
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for _ in range(100_000):
            tape.log(CrackOrigin.QUERY)
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    retained = sum(
        stat.size_diff
        for stat in after.compare_to(before, "filename")
        if stat.traceback[0].filename.endswith("tape.py")
    )
    assert retained < 4096
    assert tape.count() == 100_001


def test_export_and_restore_round_trip_the_counters():
    tape = CrackTape()
    tape.log(CrackOrigin.QUERY, 5)
    tape.record(CrackOrigin.MERGE)
    tape.note_stall(2)
    tape.note_stall()
    state = tape.export_state()
    assert state == {
        "counts": {o.value: 0 for o in CrackOrigin}
        | {CrackOrigin.QUERY.value: 5, CrackOrigin.MERGE.value: 1},
        "seen": 6,
        "stalls": {"2": 1, "": 1},
    }
    back = CrackTape()
    back.restore_state(state)
    assert back.export_state() == state
    assert back.stall_count(2) == 1 and back.stall_count(None) == 1


def test_restore_ignores_an_origin_no_longer_counted():
    """Older generations also wrote a ``"load"`` count, which nothing
    produced; restore reads the origins it knows and drops the rest."""
    tape = CrackTape()
    counts = {"query": 3, "tuning": 2, "merge": 0, "sort": 0, "load": 0}
    tape.restore_state({"counts": counts, "seen": 5, "stalls": {}})
    assert tape.count(CrackOrigin.QUERY) == 3
    assert tape.count(CrackOrigin.TUNING) == 2
    assert "load" not in tape.export_state()["counts"]


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
