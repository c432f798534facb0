"""Unit tests for :class:`LatchedCrackerAccess`, the tuning workers'
access to one cracker index."""

import threading

from repro.cracking.concurrency import LatchedCrackerAccess
from repro.cracking.index import CrackerIndex
from repro.simtime.clock import SimClock

from tests.conftest import ground_truth_count


def _cut(access, values, **options) -> int:
    """A worker batch as an idle window accounts for it: the pass,
    then its pricing; returns how many values it cut."""
    record = access.crack_value(values, **options)
    access.index.price_pass(record)
    return len(record.fresh)


def test_latched_select_matches_plain_select(small_column):
    plain = CrackerIndex(small_column)
    latched_index = CrackerIndex(small_column)
    access = LatchedCrackerAccess(latched_index)
    bounds = [(0, 2e7), (1e7, 5e7), (4.2e7, 4.21e7), (9e7, 1e8)]
    for low, high in bounds:
        expected = plain.select_range(low, high)
        got = access.select_range(low, high)
        assert got.count == expected.count
        assert got.count == ground_truth_count(small_column, low, high)
    assert latched_index.piece_map.pivots() == plain.piece_map.pivots()
    latched_index.check_invariants()


def test_latched_crack_value_contract(small_column):
    """A one-pivot batch cuts once; the same pivot again, or a pivot in
    a piece at/below the floor, is degenerate and cuts nothing."""
    index = CrackerIndex(small_column)
    access = LatchedCrackerAccess(index)
    assert _cut(access, [5e7]) == 1
    # Same value again: already a pivot -> degenerate.
    assert _cut(access, [5e7]) == 0
    # A huge min size: piece too small -> degenerate.
    assert _cut(access, [2.5e7], min_piece_size=10**9) == 0
    assert index.piece_map.pivots() == [5e7]
    index.check_invariants()


def test_latched_batch_filters_degenerate_pivots(small_column):
    """A batch is one pass over the pivots worth cracking:
    duplicates, hits on existing cuts and pivots in pieces at/below
    ``min_piece_size`` are dropped, and the count is what was cut."""
    index = CrackerIndex(small_column)
    access = LatchedCrackerAccess(index)
    assert _cut(access, []) == 0
    assert _cut(access, [5e7, 2e7, 5e7, 8e7]) == 3  # one duplicate
    assert index.piece_map.pivots() == [2e7, 5e7, 8e7]
    # Two hits and one fresh pivot.
    assert _cut(access, [2e7, 3e7, 8e7]) == 1
    # Pieces are ~1-3k rows now: a 5k floor filters everything ...
    assert _cut(access, [1e7, 4e7, 9e7], min_piece_size=5_000) == 0
    assert index.piece_count == 5
    # ... and judged per piece: only [5e7, 8e7) (3k rows) is above 2.5k.
    sizes = [p.size for p in index.piece_map.pieces()]
    assert [size > 2_500 for size in sizes] == [
        False, False, False, True, False
    ]
    assert _cut(access, [1e7, 4e7, 6e7, 9e7], min_piece_size=2_500) == 1
    assert index.piece_map.has_pivot(6e7)
    # Several pivots in one piece above the floor all cut, whatever
    # the sub-pieces come to: the floor is judged on the pieces as the
    # batch finds them.
    assert _cut(access, [6.5e7, 7e7, 7.5e7], min_piece_size=1_500) == 3
    index.check_invariants()


def test_latched_batch_matches_unlatched_ensure_cuts(small_column):
    """Same cuts and, once priced, the same tape as the serial batch
    path."""
    pivots = [float(v) for v in range(5_000_000, 100_000_000, 7_000_000)]
    plain = CrackerIndex(small_column, clock=SimClock())
    plain.ensure_cuts(pivots)
    latched = CrackerIndex(small_column, clock=SimClock())
    access = LatchedCrackerAccess(latched)
    assert _cut(access, pivots[:6]) == 6
    assert _cut(access, pivots) == len(pivots) - 6
    assert latched.piece_map.pivots() == plain.piece_map.pivots()
    assert latched.piece_map.cuts() == plain.piece_map.cuts()
    assert latched.tape.export_state() == plain.tape.export_state()


def test_latched_selects_from_threads_answer_exactly(small_column):
    """Clients racing on one index through the facade -- overlapping
    ranges, shared pieces -- all get exact answers."""
    index = CrackerIndex(small_column, clock=SimClock())
    access = LatchedCrackerAccess(index)
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
