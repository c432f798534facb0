"""Unit tests for piece latching and the concurrent crack scheduler."""

import numpy as np
import pytest

from repro.cracking.concurrency import (
    ClientQuery,
    ConcurrentCrackScheduler,
    LatchMode,
    PieceLatchManager,
)
from repro.cracking.index import CrackerIndex
from repro.simtime.clock import SimClock

from tests.conftest import ground_truth_count


def test_shared_latches_coexist():
    latches = PieceLatchManager()
    assert latches.try_acquire("a", 0, LatchMode.SHARED)
    assert latches.try_acquire("b", 0, LatchMode.SHARED)
    assert latches.holders_of(0) == {"a", "b"}
    assert latches.stats.grants == 2


def test_exclusive_excludes_everyone():
    latches = PieceLatchManager()
    assert latches.try_acquire("a", 0, LatchMode.EXCLUSIVE)
    assert not latches.try_acquire("b", 0, LatchMode.SHARED)
    assert not latches.try_acquire("b", 0, LatchMode.EXCLUSIVE)
    assert latches.stats.conflicts == 2


def test_shared_blocks_exclusive_from_others():
    latches = PieceLatchManager()
    assert latches.try_acquire("a", 0, LatchMode.SHARED)
    assert not latches.try_acquire("b", 0, LatchMode.EXCLUSIVE)


def test_lone_shared_holder_upgrades():
    latches = PieceLatchManager()
    assert latches.try_acquire("a", 0, LatchMode.SHARED)
    assert latches.try_acquire("a", 0, LatchMode.EXCLUSIVE)
    assert not latches.try_acquire("b", 0, LatchMode.SHARED)


def test_shared_holder_cannot_upgrade_among_peers():
    latches = PieceLatchManager()
    latches.try_acquire("a", 0, LatchMode.SHARED)
    latches.try_acquire("b", 0, LatchMode.SHARED)
    assert not latches.try_acquire("a", 0, LatchMode.EXCLUSIVE)


def test_release_all_frees_pieces():
    latches = PieceLatchManager()
    latches.try_acquire("a", 0, LatchMode.EXCLUSIVE)
    latches.try_acquire("a", 10, LatchMode.EXCLUSIVE)
    released = latches.release_all("a")
    assert released == 2
    assert latches.held_count() == 0
    assert latches.try_acquire("b", 0, LatchMode.EXCLUSIVE)


def test_reacquire_same_mode_is_idempotent():
    latches = PieceLatchManager()
    assert latches.try_acquire("a", 0, LatchMode.EXCLUSIVE)
    assert latches.try_acquire("a", 0, LatchMode.EXCLUSIVE)
    assert latches.try_acquire("a", 0, LatchMode.SHARED)


def test_scheduler_runs_all_queries(small_column):
    index = CrackerIndex(small_column, clock=SimClock())
    scheduler = ConcurrentCrackScheduler(index)
    queries = [
        ClientQuery("c1", 10_000_000, 20_000_000),
        ClientQuery("c2", 30_000_000, 40_000_000),
        ClientQuery("c3", 15_000_000, 35_000_000),
        ClientQuery("c4", 70_000_000, 80_000_000),
    ]
    report = scheduler.run(queries)
    assert report.executed == 4
    for query in queries:
        assert query.result is not None
        assert query.result.count == ground_truth_count(
            small_column, query.low, query.high
        )
    index.check_invariants()


def test_scheduler_defers_conflicting_queries(small_column):
    index = CrackerIndex(small_column, clock=SimClock())
    scheduler = ConcurrentCrackScheduler(index)
    # All four queries hit the same initial (single) piece: only the
    # first proceeds in round one, the rest wait.
    queries = [
        ClientQuery(f"c{i}", 10_000_000 * i, 10_000_000 * i + 5_000_000)
        for i in range(1, 5)
    ]
    report = scheduler.run(queries)
    assert report.executed == 4
    assert report.deferrals > 0
    assert report.rounds > 1


def test_scheduler_disjoint_pieces_run_same_round(small_column):
    index = CrackerIndex(small_column, clock=SimClock())
    # Pre-crack so the queries land in different pieces.
    index.select_range(25_000_000, 50_000_000)
    index.select_range(75_000_000, 90_000_000)
    scheduler = ConcurrentCrackScheduler(index)
    queries = [
        ClientQuery("c1", 1_000_000, 2_000_000),
        ClientQuery("c2", 30_000_000, 31_000_000),
        ClientQuery("c3", 80_000_000, 81_000_000),
    ]
    report = scheduler.run(queries)
    assert report.rounds == 1
    assert report.deferrals == 0


def test_scheduler_livelock_guard(small_column):
    from repro.errors import ConcurrencyError

    index = CrackerIndex(small_column, clock=SimClock())
    scheduler = ConcurrentCrackScheduler(index)
    queries = [
        ClientQuery("c1", 10_000_000, 20_000_000),
        ClientQuery("c2", 10_000_000, 20_000_000),
    ]
    with pytest.raises(ConcurrencyError):
        scheduler.run(queries, max_rounds=0)


def test_check_invariants_beside_a_cracking_thread(small_column):
    """Regression: ``check_invariants`` was the one structural reader
    that skipped the index's monitor lock, so a check racing a crack
    saw the piece map mid-shift (``pivots[i] == pivots[i + 1]``) and
    reported corruption that was not there."""
    import sys
    import threading
    import time

    index = CrackerIndex(small_column, clock=SimClock())
    values = np.random.default_rng(11).permutation(small_column.values)
    errors: list[BaseException] = []
    stop = threading.Event()

    def crack() -> None:
        try:
            for value in values:
                if stop.is_set():
                    return
                index.ensure_cut(float(value))
        except BaseException as exc:  # surfaced through ``errors``
            errors.append(exc)
        finally:
            stop.set()

    def check() -> None:
        try:
            while not stop.is_set():
                index.check_invariants()
        except BaseException as exc:
            errors.append(exc)
            stop.set()

    threads = [threading.Thread(target=crack), threading.Thread(target=check)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 1.0
        while not stop.is_set() and time.monotonic() < deadline:
            time.sleep(0.01)
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert index.piece_count > 1
