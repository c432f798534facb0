"""Unit tests for merging pending updates into cracker indexes."""

import numpy as np

from repro.cracking.index import CrackerIndex
from repro.cracking.updates import (
    MaintainedCrackerIndex,
    merge_deletes,
    merge_inserts,
)
from repro.engine.operators import apply_pending
from repro.simtime.clock import SimClock
from repro.storage.dtypes import INT64
from repro.storage.table import Table
from repro.storage.updates import PendingUpdates

from tests.conftest import ground_truth_count


def test_merge_inserts_lands_in_right_pieces(small_column):
    index = CrackerIndex(small_column, clock=SimClock())
    index.select_range(30_000_000, 60_000_000)
    fresh = np.array(
        [10, 35_000_000, 35_000_001, 99_999_999], dtype=np.int64
    )
    inserted = merge_inserts(index, fresh)
    assert inserted == 4
    assert index.row_count == small_column.row_count + 4
    index.check_invariants()  # piece bounds still hold
    view = index.select_range(35_000_000, 35_000_002)
    base_count = ground_truth_count(
        small_column, 35_000_000, 35_000_002
    )
    assert view.count == base_count + 2


def test_merge_deletes_removes_single_occurrences(small_column):
    index = CrackerIndex(small_column, clock=SimClock())
    index.select_range(30_000_000, 60_000_000)
    victim = int(small_column.values[0])
    before = index.select_range(victim, victim + 1).count
    removed = merge_deletes(index, np.array([victim], dtype=np.int64))
    assert removed == 1
    assert index.select_range(victim, victim + 1).count == before - 1
    assert index.row_count == small_column.row_count - 1
    index.check_invariants()


def test_merge_deletes_ignores_missing_values(small_column):
    index = CrackerIndex(small_column, clock=SimClock())
    removed = merge_deletes(index, np.array([-5], dtype=np.int64))
    assert removed == 0
    assert index.row_count == small_column.row_count


def test_maintained_index_sees_pending_inserts(small_column):
    pending = PendingUpdates(INT64, base=small_column.values)
    index = MaintainedCrackerIndex(
        small_column, pending, clock=SimClock()
    )
    pending.stage_inserts([42_000_000, 42_000_001])
    view = index.select_range(42_000_000, 42_000_002)
    base = ground_truth_count(small_column, 42_000_000, 42_000_002)
    assert view.count == base + 2
    # The pending entries were consumed by the ripple merge.
    assert pending.pending_insert_count == 0


def test_maintained_index_sees_pending_deletes(small_column):
    pending = PendingUpdates(INT64, base=small_column.values)
    index = MaintainedCrackerIndex(
        small_column, pending, clock=SimClock()
    )
    victim = int(small_column.values[10])
    pending.stage_deletes([10], [victim])
    base = ground_truth_count(small_column, victim, victim + 1)
    view = index.select_range(victim, victim + 1)
    assert view.count == base - 1


def test_maintained_index_leaves_out_of_range_pending(small_column):
    pending = PendingUpdates(INT64, base=small_column.values)
    index = MaintainedCrackerIndex(
        small_column, pending, clock=SimClock()
    )
    pending.stage_inserts([99_000_000])
    index.select_range(1_000, 2_000)
    assert pending.pending_insert_count == 1


def test_restaged_consumed_position_never_reaches_the_overlay(small_column):
    """A store lets a consumed position be staged again, and
    the row it names is then no longer in the cracker column -- the one
    pending delete that would not match a row of the result.  The
    overlay's arithmetic never meets it: the ripple select takes every
    in-range entry before it answers, so the store is empty over the
    range by the time ``apply_pending`` looks.  (The victim's value is
    unique, so the second merge finds nothing to remove.)"""
    table = Table("R")
    table.add_column(small_column)
    pending = table.updates_for("A1")
    index = MaintainedCrackerIndex(small_column, pending, clock=SimClock())
    values, counts = np.unique(small_column.values, return_counts=True)
    unique = values[counts == 1]
    victim = int(unique[len(unique) // 2])
    row = int(np.flatnonzero(small_column.values == victim)[0])
    low, high = victim - 5_000_000, victim + 5_000_000
    reference = np.sort(np.delete(small_column.values, row))
    reference = reference[(reference >= low) & (reference < high)]
    for _ in range(2):
        assert pending.stage_deletes([row], [victim]) == 1
        view = index.select_range(low, high)
        assert pending.pending_insert_count == pending.pending_delete_count == 0
        assert apply_pending(view, pending, low, high, SimClock()) is view
        assert np.array_equal(np.sort(view.values()), reference)
    index.check_invariants()


def test_merge_charges_clock(small_column):
    clock = SimClock()
    index = CrackerIndex(small_column, clock=clock)
    index.select_range(10_000_000, 20_000_000)
    merged_before = clock.total_charge.elements_merged
    merge_inserts(index, np.array([15_000_000], dtype=np.int64))
    assert clock.total_charge.elements_merged > merged_before
