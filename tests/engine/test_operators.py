"""Unit tests for the shared physical operators."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cracking.index import CrackerIndex
from repro.engine.operators import (
    PendingWindow,
    apply_pending,
    project,
    scan_select,
)
from repro.simtime.accounting import WindowAccountant
from repro.simtime.clock import SimClock
from repro.storage.column import Column
from repro.storage.dtypes import FLOAT64, INT32, INT64, normalise_range
from repro.storage.table import Table
from repro.storage.updates import PendingUpdates
from repro.storage.views import (
    PendingOverlay,
    RangeView,
    multiset_difference,
)

from tests.conftest import ground_truth_count


def test_scan_select_matches_ground_truth(small_column):
    clock = SimClock()
    view = scan_select(small_column.values, 1e7, 3e7, clock)
    assert view.count == ground_truth_count(small_column, 1e7, 3e7)
    assert clock.total_charge.elements_scanned == small_column.row_count


def test_scan_select_returns_positions(small_column):
    clock = SimClock()
    view = scan_select(small_column.values, 1e7, 3e7, clock)
    positions = view.positions()
    values = small_column.values[positions]
    assert np.all((values >= 1e7) & (values < 3e7))


def test_project_materializes_and_charges(small_column):
    clock = SimClock()
    view = scan_select(small_column.values, 1e7, 3e7, clock)
    before = clock.total_charge.elements_materialized
    values = project(view, clock)
    assert len(values) == view.count
    assert clock.total_charge.elements_materialized == before + view.count


def test_multiset_difference_removes_one_occurrence_each():
    values = np.array([5, 3, 5, 7, 5], dtype=np.int64)
    out = multiset_difference(values, np.array([5, 5], dtype=np.int64))
    assert out.tolist() == [3, 7, 5]


def test_multiset_difference_ignores_missing():
    values = np.array([1, 2], dtype=np.int64)
    out = multiset_difference(values, np.array([9], dtype=np.int64))
    assert out.tolist() == [1, 2]


def test_multiset_difference_empty_inputs():
    empty = np.array([], dtype=np.int64)
    some = np.array([1], dtype=np.int64)
    assert multiset_difference(empty, some).tolist() == []
    assert multiset_difference(some, empty).tolist() == [1]


@pytest.fixture
def pending() -> PendingUpdates:
    return PendingUpdates(INT64)


def test_apply_pending_without_deltas_is_identity(small_column, pending):
    clock = SimClock()
    view = scan_select(small_column.values, 1e7, 3e7, clock)
    assert apply_pending(view, pending, 1e7, 3e7, clock) is view


def test_apply_pending_adds_inserts_in_range(small_column, pending):
    clock = SimClock()
    pending.stage_inserts([15_000_000, 95_000_000])
    view = scan_select(small_column.values, 1e7, 3e7, clock)
    corrected = apply_pending(view, pending, 1e7, 3e7, clock)
    assert isinstance(corrected, PendingOverlay)
    assert corrected.count == view.count + 1  # only the in-range insert
    assert len(corrected.values()) == corrected.count


def test_apply_pending_subtracts_deletes(small_column, pending):
    clock = SimClock()
    victim = int(small_column.values[0])
    pending.stage_deletes([0], [victim])
    view = scan_select(small_column.values, victim, victim + 1, clock)
    corrected = apply_pending(
        view, pending, victim, victim + 1, clock
    )
    assert corrected.count == view.count - 1


def test_apply_pending_out_of_range_deltas_ignored(small_column, pending):
    clock = SimClock()
    pending.stage_inserts([99_999_999])
    view = scan_select(small_column.values, 1e7, 3e7, clock)
    corrected = apply_pending(view, pending, 1e7, 3e7, clock)
    assert corrected is view


# -- vectorized multiset difference & pending windows (ISSUE 4) ----------


def _reference_multiset_difference(values, removals):
    """The original dict-loop semantics: remove one occurrence per
    removal entry, earliest occurrences first, order preserved."""
    import numpy as np

    remaining = {}
    for value in removals.tolist():
        remaining[value] = remaining.get(value, 0) + 1
    keep = np.ones(len(values), dtype=bool)
    for i, value in enumerate(values.tolist()):
        budget = remaining.get(value, 0)
        if budget > 0:
            keep[i] = False
            remaining[value] = budget - 1
    return values[keep]


def test_multiset_difference_matches_reference_semantics():
    import numpy as np

    rng = np.random.default_rng(17)
    for _ in range(60):
        values = rng.integers(0, 12, size=int(rng.integers(0, 60)))
        removals = rng.integers(0, 12, size=int(rng.integers(0, 30)))
        got = multiset_difference(values, removals)
        expected = _reference_multiset_difference(values, removals)
        assert got.tolist() == expected.tolist()


def test_pending_window_matches_sequential_apply_pending(tiny_db, a1):
    pending = tiny_db.table("R").updates_for("A1")
    rng = np.random.default_rng(23)
    pending.stage_inserts(rng.integers(0, 100_000_000, size=30))
    values = tiny_db.column("R", "A1").values
    positions = rng.integers(0, len(values), size=15)
    pending.stage_deletes(positions, values[positions])

    lows = rng.uniform(0, 9e7, size=12)
    highs = lows + rng.uniform(1, 2e7, size=12)
    bounds = [
        normalise_range(values.dtype, low, high)
        for low, high in zip(lows, highs)
    ]
    window = PendingWindow(pending, bounds)
    assert window.active

    sequential_clock = SimClock()
    batch_clock = SimClock()
    accountant = WindowAccountant(batch_clock)
    overlaps = window.overlaps
    for slot, (low, high) in enumerate(bounds):
        base = scan_select(values, low, high, SimClock())
        expected = apply_pending(
            base, pending, low, high, sequential_clock
        )
        if overlaps[slot]:
            got = window.apply(slot, base, accountant)
        else:
            got = base
        assert sorted(got.values().tolist()) == sorted(
            expected.values().tolist()
        )
    accountant.finish()
    assert repr(batch_clock.now()) == repr(sequential_clock.now())
    assert batch_clock.total_charge == sequential_clock.total_charge


# -- the pending overlay is a view (ISSUE 21) ----------------------------


@settings(max_examples=200, deadline=None)
@example(  # past the threshold, whatever the search finds
    kind=(INT64, np.int64),
    values=list(range(13)) * 5,
    removals=[i % 15 for i in range(40)],
    inserts=[3],
)
@given(
    kind=st.sampled_from(
        [(INT32, np.int32), (INT64, np.int64), (FLOAT64, np.float64)]
    ),
    values=st.lists(st.integers(0, 12), max_size=300),
    removals=st.lists(st.integers(0, 14), max_size=80),
    inserts=st.lists(st.integers(0, 14), max_size=6),
)
def test_pending_overlay_matches_reference_multiset(
    kind, values, removals, inserts
):
    """Count and values of the overlay equal the dict-loop reference
    plus the inserts -- duplicates, unmatched removals (13 and 14 are
    never base values), empty sides, and removal sets on both sides of
    the trickle threshold (32)."""
    ctype, dtype = kind
    base = RangeView(np.array(values, dtype=dtype), 0, len(values))
    pending = PendingUpdates(ctype)
    pending.stage_inserts(np.array(inserts, dtype=dtype))
    pending.stage_deletes(
        np.arange(len(removals)), np.array(removals, dtype=dtype)
    )
    clock = SimClock()
    corrected = apply_pending(base, pending, 0, 15, clock)
    if not removals and not inserts:
        assert corrected is base
        return
    survivors = _reference_multiset_difference(
        base.values(), pending.deleted_values
    )
    assert corrected.count == len(survivors) + len(inserts)
    assert corrected.values().dtype == dtype
    assert corrected.values().tolist() == (
        survivors.tolist() + sorted(np.array(inserts, dtype=dtype).tolist())
    )
    assert corrected.values() is corrected.values()  # one copy, kept
    assert clock.total_charge.elements_materialized == corrected.count
    assert clock.total_charge.comparisons == max(1, len(removals))
    # The same select read only after the rows under it moved (what a
    # crack inside the range does): the multiset is the one selected.
    moved = apply_pending(base, pending, 0, 15, SimClock())
    base.values()[:] = base.values()[::-1].copy()
    assert moved.count == corrected.count
    assert sorted(moved.values().tolist()) == sorted(
        corrected.values().tolist()
    )


_TWIN_BOUNDS = [
    float("-inf"), float("inf"), float("nan"), -(2.0**63), 2.0**63,
    0, 3.5, 7, 12.5, 15, float(2**53 + 4), float(2**53 + 8), 2**53 + 7,
]


@settings(max_examples=150, deadline=None)
@example(  # past the threshold, every delete of one value
    kind=(INT64, np.int64, 2**53),
    values=[5] * 60 + [9],
    victims=list(range(40)),
    inserts=[5, 14],
    bounds=[(0, 15), (float(2**53 + 4), float("inf")), (3.5, float("nan"))],
)
@given(
    kind=st.sampled_from([
        (INT32, np.int32, 0),
        (INT64, np.int64, 0),
        (INT64, np.int64, 2**53),  # odd values no float bound can name
        (FLOAT64, np.float64, 0),
    ]),
    values=st.lists(st.integers(0, 12), min_size=1, max_size=300),
    victims=st.lists(st.integers(0, 299), max_size=80),
    inserts=st.lists(st.integers(0, 14), max_size=6),
    bounds=st.lists(
        st.tuples(st.sampled_from(_TWIN_BOUNDS), st.sampled_from(_TWIN_BOUNDS)),
        min_size=1,
        max_size=6,
    ),
)
def test_table_store_overlay_matches_reference_multiset(
    kind, values, victims, inserts, bounds
):
    """The property above behind a table's store, where the count is
    arithmetic: duplicated base values, several deletes of one value at
    distinct rows, on both sides of the trickle threshold, at bounds
    that are infinite, NaN or beyond 2^53.  Count, values read at once
    and values read after the rows moved all equal the exact Python
    reference, and a window hands every slot what the sequential path
    hands it, charges included."""
    ctype, dtype, offset = kind
    column = Column("A1", np.array(values, dtype=dtype) + dtype(offset))
    table = Table("R")
    table.add_column(column)
    pending = table.updates_for("A1")
    rows = sorted({victim % len(values) for victim in victims})
    pending.stage_deletes(rows, column.values[rows])
    pending.stage_inserts(np.array(inserts, dtype=dtype) + dtype(offset))
    alive = [
        value for row, value in enumerate(column.values.tolist())
        if row not in set(rows)
    ] + pending.insert_values.tolist()
    # Normalised as the engine passes them; an empty range never
    # reaches the overlay.
    keys = [
        normalise_range(column.values.dtype, low, high)
        for low, high in bounds
    ]
    window = PendingWindow(pending, keys)
    sequential_clock, batch_clock = SimClock(), SimClock()
    accountant = WindowAccountant(batch_clock)
    for slot, ((low, high), pair) in enumerate(zip(bounds, keys)):
        reference = sorted(v for v in alive if low <= v < high)
        selected = np.array(
            [v for v in column.values.tolist() if low <= v < high],
            dtype=dtype,
        )
        base = RangeView(selected, 0, len(selected))
        view = moved = base
        if pair is not None:
            view = apply_pending(base, pending, *pair, sequential_clock)
            moved = apply_pending(base, pending, *pair, SimClock())
        batched = base
        if window.active and window.overlaps[slot]:
            batched = window.apply(slot, base, accountant)
        assert (batched is base) == (view is base), (low, high)
        assert view.count == len(reference), (low, high)
        assert sorted(view.values().tolist()) == reference, (low, high)
        assert batched.count == view.count
        assert batched.values().tolist() == view.values().tolist()
        selected[:] = selected[::-1].copy()  # what a crack inside does
        assert moved.count == len(reference)
        assert sorted(moved.values().tolist()) == reference, (low, high)
    accountant.finish()
    assert repr(batch_clock.now()) == repr(sequential_clock.now())
    assert batch_clock.total_charge == sequential_clock.total_charge


def test_pending_overlay_survives_a_crack_inside_its_range(small_column):
    """The view answers with values, and trusts a row position only
    while it still holds the value it was noted for: a later query
    that cracks inside the view's range permutes the rows under it and
    the view still answers with the multiset it was taken for."""
    index = CrackerIndex(small_column, clock=SimClock())
    base = index.select_range(2e7, 6e7)
    victims = base.values()[[0, 5, base.count // 2, base.count - 1]].copy()
    pending = PendingUpdates(INT64)
    pending.stage_inserts([25_000_000, 25_000_000, 59_999_999])
    pending.stage_deletes(np.arange(len(victims)), victims)
    view = apply_pending(base, pending, 2e7, 6e7, SimClock())
    expected = np.sort(
        np.concatenate([
            _reference_multiset_difference(
                base.values(), pending.deleted_values
            ),
            pending.insert_values,
        ])
    )
    before = base.values().copy()
    index.select_range(3e7, 4e7)
    index.select_range(4.5e7, 5e7)
    # The rows did move, victims included: where the select saw one,
    # another value sits now.
    first_seen = [int(np.flatnonzero(before == v)[0]) for v in victims]
    assert (base.values()[first_seen] != victims).any()
    assert view.count == len(expected)
    assert np.array_equal(np.sort(view.values()), expected)


def test_pending_overlay_widens_to_the_column_dtype():
    """A narrowed cracker column answers in int32; a pending insert of
    the int64 column need not fit there."""
    base = RangeView(np.array([7, 8, 9], dtype=np.int32), 0, 3)
    pending = PendingUpdates(INT64)
    pending.stage_inserts([5_000_000_000])
    pending.stage_deletes([0, 1], [8, 6_000_000_000])
    view = apply_pending(base, pending, 0, 1e10, SimClock())
    assert view.count == 3
    assert view.values().dtype == np.int64
    assert view.values().tolist() == [7, 9, 5_000_000_000]


# -- a verified delete needs no scan (ISSUE 23) --------------------------


class _UnreadableResult:
    """A select result that counts and refuses to be read."""

    def __init__(self, count: int) -> None:
        self.count = count

    def values(self) -> np.ndarray:
        raise AssertionError("the select read its result")

    def positions(self) -> None:
        return None


@pytest.mark.parametrize("removals", [1, 32, 33, 200])
def test_select_behind_a_table_store_does_not_read_the_result(
    small_column, removals
):
    """A table's store verified every delete against the base column,
    so each one in range is a row of the result: the count is
    arithmetic on both sides of the trickle threshold, through
    ``apply_pending`` and ``PendingWindow.apply`` alike."""
    table = Table("R")
    table.add_column(small_column)
    pending = table.updates_for("A1")
    low, high = 20_000_000, 60_000_000
    in_range = np.flatnonzero(
        (small_column.values >= low) & (small_column.values < high)
    )
    victims = in_range[:: len(in_range) // removals][:removals]
    pending.stage_deletes(victims, small_column.values[victims])
    pending.stage_deletes([0], small_column.values[[0]])  # maybe outside
    pending.stage_inserts([25_000_000, 25_000_000, 70_000_000])
    outside = not low <= small_column.values[0] < high
    expected = len(in_range) - removals - (0 if outside else 1) + 2
    spy = _UnreadableResult(len(in_range))
    clock = SimClock()
    assert apply_pending(spy, pending, low, high, clock).count == expected
    window = PendingWindow(pending, [(low, high)])
    batch_clock = SimClock()
    accountant = WindowAccountant(batch_clock)
    assert window.apply(0, spy, accountant).count == expected
    accountant.finish()
    assert batch_clock.total_charge == clock.total_charge
    # The reader pays the one scan, and gets the reference multiset.
    base = scan_select(small_column.values, low, high, SimClock())
    view = apply_pending(base, pending, low, high, SimClock())
    assert view.count == expected == len(view.values())
    assert np.array_equal(
        np.sort(view.values()),
        np.sort(np.concatenate([
            _reference_multiset_difference(
                base.values(), pending.deletes_in_range(low, high)
            ),
            [25_000_000, 25_000_000],
        ])),
    )


def test_select_behind_a_standalone_store_reads_the_result():
    """A standalone store takes deletes on trust; one that matches no
    row of the result is ignored, which only a look at the result can
    tell -- so that select still reads."""
    pending = PendingUpdates(INT64)
    pending.stage_deletes([0, 1], [8, 13])
    with pytest.raises(AssertionError, match="read its result"):
        apply_pending(_UnreadableResult(3), pending, 0, 15, SimClock())
    window = PendingWindow(pending, [(0, 15)])
    with pytest.raises(AssertionError, match="read its result"):
        window.apply(0, _UnreadableResult(3), WindowAccountant(SimClock()))
    base = RangeView(np.array([7, 8, 9], dtype=np.int64), 0, 3)
    assert apply_pending(base, pending, 0, 15, SimClock()).count == 2
    # Inserts alone need no look at the result on any store.
    pending = PendingUpdates(INT64)
    pending.stage_inserts([5])
    assert apply_pending(
        _UnreadableResult(3), pending, 0, 15, SimClock()
    ).count == 4
