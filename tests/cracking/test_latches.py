"""Unit tests for the blocking latch layer used by tuning workers."""

import threading

import pytest

from repro.cracking.concurrency import (
    LatchedCrackerAccess,
    PieceLatchTable,
    ReadWriteLatch,
)
from repro.cracking.index import CrackerIndex
from repro.errors import ConcurrencyError, LatchTimeout
from repro.faults import FaultPlan, engaged
from repro.simtime.clock import SimClock

from tests.conftest import ground_truth_count


# -- ReadWriteLatch ------------------------------------------------------


def test_uncontended_acquisitions_do_not_stall():
    latch = ReadWriteLatch()
    assert latch.acquire_read() is False
    assert latch.acquire_read() is False  # readers share
    latch.release_read()
    latch.release_read()
    assert latch.acquire_write() is False
    latch.release_write()


def test_writer_waits_for_readers_and_reports_the_stall():
    latch = ReadWriteLatch()
    latch.acquire_read()
    outcome = []
    writer = threading.Thread(
        target=lambda: outcome.append(latch.acquire_write())
    )
    writer.start()
    # Writer must be parked until the reader leaves.
    writer.join(timeout=0.05)
    assert writer.is_alive()
    latch.release_read()
    writer.join(timeout=5)
    assert not writer.is_alive()
    assert outcome == [True]  # it had to wait -> contention stall
    latch.release_write()


def test_reader_waits_for_writer():
    latch = ReadWriteLatch()
    latch.acquire_write()
    outcome = []
    reader = threading.Thread(
        target=lambda: outcome.append(latch.acquire_read())
    )
    reader.start()
    reader.join(timeout=0.05)
    assert reader.is_alive()
    latch.release_write()
    reader.join(timeout=5)
    assert not reader.is_alive()
    assert outcome == [True]
    latch.release_read()


# -- PieceLatchTable -----------------------------------------------------


def test_disjoint_buckets_do_not_conflict():
    table = PieceLatchTable()
    entered = threading.Event()
    release = threading.Event()

    def hold_key_zero():
        with table.write_pieces([0]):
            entered.set()
            release.wait(timeout=5)

    holder = threading.Thread(target=hold_key_zero)
    holder.start()
    assert entered.wait(timeout=5)
    with table.write_pieces([500]) as stalled:
        assert stalled is False  # other bucket: no conflict
    release.set()
    holder.join()
    assert table.stats.conflicts == 0
    assert table.stats.grants == 2


def test_same_bucket_conflicts_and_counts_a_stall():
    table = PieceLatchTable()
    entered = threading.Event()
    release = threading.Event()

    def hold():
        with table.write_pieces([7]):
            entered.set()
            release.wait(timeout=5)

    holder = threading.Thread(target=hold)
    holder.start()
    assert entered.wait(timeout=5)
    stalls = []

    def contender():
        with table.write_pieces([7]) as stalled:
            stalls.append(stalled)

    thread = threading.Thread(target=contender)
    thread.start()
    thread.join(timeout=0.05)
    assert thread.is_alive()  # parked behind the holder
    release.set()
    holder.join()
    thread.join(timeout=5)
    assert stalls == [True]
    assert table.stats.conflicts == 1


def test_exclusive_excludes_piece_level_traffic():
    table = PieceLatchTable()
    entered = threading.Event()
    release = threading.Event()

    def hold_exclusive():
        with table.exclusive():
            entered.set()
            release.wait(timeout=5)

    holder = threading.Thread(target=hold_exclusive)
    holder.start()
    assert entered.wait(timeout=5)
    stalls = []

    def piece_user():
        with table.write_pieces([3]) as stalled:
            stalls.append(stalled)

    thread = threading.Thread(target=piece_user)
    thread.start()
    thread.join(timeout=0.05)
    assert thread.is_alive()
    release.set()
    holder.join()
    thread.join(timeout=5)
    assert stalls == [True]


def test_multi_key_acquisition_orders_keys():
    table = PieceLatchTable()
    with table.write_pieces([9, 2, 9]) as stalled:
        assert stalled is False
    # Two distinct buckets acquired and released.
    assert table.stats.grants == 1
    assert table.stats.releases == 2


# -- LatchedCrackerAccess ------------------------------------------------


def test_latched_select_matches_plain_select(small_column):
    plain = CrackerIndex(small_column)
    latched_index = CrackerIndex(small_column)
    access = LatchedCrackerAccess(latched_index, PieceLatchTable())
    bounds = [(0, 2e7), (1e7, 5e7), (4.2e7, 4.21e7), (9e7, 1e8)]
    for low, high in bounds:
        expected = plain.select_range(low, high)
        got = access.select_range(low, high)
        assert got.count == expected.count
        assert got.count == ground_truth_count(small_column, low, high)
    assert latched_index.piece_map.pivots() == plain.piece_map.pivots()
    latched_index.check_invariants()


def test_latched_crack_value_contract(small_column):
    index = CrackerIndex(small_column)
    access = LatchedCrackerAccess(index, PieceLatchTable())
    assert access.crack_value(5e7) is True
    # Same value again: already a pivot -> degenerate.
    assert access.crack_value(5e7) is False
    # A huge min size: piece too small -> degenerate.
    assert (
        access.crack_value(2.5e7, min_piece_size=10**9) is False
    )
    assert index.piece_map.has_pivot(5e7)
    index.check_invariants()


def test_latched_batch_filters_degenerate_pivots(small_column):
    """A batch is one ensure_cuts over the pivots worth cracking:
    duplicates, hits on existing cuts and pivots in pieces at/below
    ``min_piece_size`` are dropped, and the count is what was cut."""
    index = CrackerIndex(small_column)
    access = LatchedCrackerAccess(index, PieceLatchTable())
    assert access.crack_value([]) == 0
    assert access.crack_value([5e7, 2e7, 5e7, 8e7]) == 3  # one duplicate
    assert index.piece_map.pivots() == [2e7, 5e7, 8e7]
    # Two hits and one fresh pivot.
    assert access.crack_value([2e7, 3e7, 8e7]) == 1
    # Pieces are ~1-3k rows now: a 5k floor filters everything ...
    assert access.crack_value([1e7, 4e7, 9e7], min_piece_size=5_000) == 0
    assert index.piece_count == 5
    # ... and judged per piece: only [5e7, 8e7) (3k rows) is above 2.5k.
    sizes = [p.size for p in index.piece_map.pieces()]
    assert [size > 2_500 for size in sizes] == [
        False, False, False, True, False
    ]
    assert access.crack_value([1e7, 4e7, 6e7, 9e7], min_piece_size=2_500) == 1
    assert index.piece_map.has_pivot(6e7)
    # Several pivots in one piece above the floor all cut, whatever
    # the sub-pieces come to: the floor is judged when the batch is
    # latched.
    assert access.crack_value([6.5e7, 7e7, 7.5e7], min_piece_size=1_500) == 3
    index.check_invariants()
    # One grant per latched pass, one release per latched piece.
    assert access.table.stats.grants == 4


def test_latched_batch_matches_unlatched_ensure_cuts(small_column):
    """Same cuts, same charges, same tape as the serial batch path."""
    pivots = [float(v) for v in range(5_000_000, 100_000_000, 7_000_000)]
    plain = CrackerIndex(small_column, clock=SimClock())
    plain.ensure_cuts(pivots)
    latched = CrackerIndex(small_column, clock=SimClock())
    access = LatchedCrackerAccess(latched, PieceLatchTable())
    assert access.crack_value(pivots[:6]) == 6
    assert access.crack_value(pivots) == len(pivots) - 6
    assert latched.piece_map.pivots() == plain.piece_map.pivots()
    assert latched.piece_map.cuts() == plain.piece_map.cuts()
    assert latched.tape.export_state() == plain.tape.export_state()


def test_latch_timeout_mid_batch_holds_nothing_and_retries(small_column):
    """A piece latch that times out while earlier ones of the batch are
    already held must release them all; the batch completes once the
    holder lets go, and is counted as stalled, not failed."""
    index = CrackerIndex(small_column)
    table = PieceLatchTable(acquire_timeout_s=0.002)
    access = LatchedCrackerAccess(index, table)
    assert access.crack_value(5e7) is True
    right = index.piece_map.locate(5e7)[1]
    entered = threading.Event()
    release = threading.Event()

    def hold_right_piece():
        with table.write_pieces([right]):
            entered.set()
            release.wait(timeout=5)

    holder = threading.Thread(target=hold_right_piece)
    holder.start()
    assert entered.wait(timeout=5)
    outcome = []
    batch = threading.Thread(
        target=lambda: outcome.append(access.crack_value([2e7, 8e7]))
    )
    batch.start()
    batch.join(timeout=0.05)
    assert batch.is_alive()  # timing out and retrying behind the holder
    # Between its retries the batch lets go of the left piece too.
    for _ in range(500):
        try:
            with table.write_pieces([0]):
                break
        except LatchTimeout:
            continue
    else:
        pytest.fail("the batch never released its first latch")
    release.set()
    holder.join(timeout=5)
    batch.join(timeout=5)
    assert not batch.is_alive() and not holder.is_alive()
    assert outcome == [2]
    assert index.tape.stall_count() >= 1
    assert table.stats.releases >= table.stats.grants
    with table.exclusive() as stalled:  # nothing left held
        assert stalled is False
    index.check_invariants()


def test_injected_latch_timeout_is_retried_by_the_batch(small_column):
    index = CrackerIndex(small_column)
    access = LatchedCrackerAccess(index, PieceLatchTable())
    plan = FaultPlan()
    plan.arm("latch.acquire", at=0)
    with engaged(plan):
        assert access.crack_value([2e7, 5e7, 8e7]) == 3
    assert plan.injected == 1
    assert plan.unrecovered() == []
    assert index.tape.stall_count() == 1
    with access.table.exclusive() as stalled:
        assert stalled is False


def test_latched_select_releases_latches_when_select_raises(small_column):
    """The piece latches of a select drop in a finally: a select that
    raises (an injected fault, say) must not strand them."""
    index = CrackerIndex(small_column, clock=SimClock())
    access = LatchedCrackerAccess(index, PieceLatchTable())
    index.select_range = lambda low, high: (_ for _ in ()).throw(
        RuntimeError("injected select failure")
    )
    with pytest.raises(RuntimeError):
        access.select_range(2e7, 6e7)
    with access.table.exclusive() as stalled:
        assert stalled is False
    assert access.table.stats.releases == access.table.stats.grants


def test_latched_selects_from_threads_answer_exactly(small_column):
    """Clients racing on one index through the facade -- overlapping
    ranges, shared pieces -- all get exact answers."""
    index = CrackerIndex(small_column, clock=SimClock())
    access = LatchedCrackerAccess(index, PieceLatchTable())
    bounds = [
        (10_000_000, 20_000_000),
        (30_000_000, 40_000_000),
        (15_000_000, 35_000_000),
        (70_000_000, 80_000_000),
    ]
    counts: dict = {}
    threads = [
        threading.Thread(
            target=lambda b=b: counts.__setitem__(
                b, access.select_range(*b).count
            )
        )
        for b in bounds
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    for low, high in bounds:
        assert counts[low, high] == ground_truth_count(small_column, low, high)
    index.check_invariants()


def test_latched_access_gives_up_after_max_retries(small_column):
    """The retry bound guards the revalidate loop against protocol
    bugs: exhausting it raises instead of spinning forever."""
    access = LatchedCrackerAccess(
        CrackerIndex(small_column, clock=SimClock()), PieceLatchTable()
    )
    access.MAX_RETRIES = 0
    with pytest.raises(ConcurrencyError):
        access.select_range(1e7, 2e7)
    with pytest.raises(ConcurrencyError):
        access.crack_value([3e7, 4e7])
