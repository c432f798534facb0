"""Unit tests for the cracker index."""

import numpy as np
import pytest

from repro.cracking.index import CrackerIndex
from repro.cracking.piece import CrackOrigin
from repro.errors import QueryError
from repro.simtime.charge import CostCharge
from repro.simtime.clock import SimClock
from repro.storage.column import Column

from tests.conftest import ground_truth_count


@pytest.fixture
def index(small_column) -> CrackerIndex:
    return CrackerIndex(small_column, clock=SimClock())


def test_select_returns_exact_range(index, small_column):
    low, high = 10_000_000, 30_000_000
    view = index.select_range(low, high)
    assert view.count == ground_truth_count(small_column, low, high)
    values = view.values()
    assert np.all((values >= low) & (values < high))
    index.check_invariants()


def test_select_refines_index(index):
    assert index.piece_count == 1
    index.select_range(10_000_000, 30_000_000)
    # Both bounds in one piece -> crack-in-three -> 3 pieces.
    assert index.piece_count == 3
    assert index.crack_count == 2


def test_repeated_query_is_cheap_and_stable(index, small_column):
    low, high = 10_000_000, 30_000_000
    first = index.select_range(low, high)
    cracks_after_first = index.crack_count
    t0 = index.clock.now()
    second = index.select_range(low, high)
    probe_cost = index.clock.now() - t0
    assert second.count == first.count
    assert index.crack_count == cracks_after_first
    # Pure piece-map lookups: orders of magnitude below a crack.
    assert probe_cost < 1e-3


def test_many_random_queries_match_ground_truth(index, small_column, rng):
    for _ in range(100):
        low = float(rng.uniform(1, 9e7))
        high = low + float(rng.uniform(0, 1e7))
        view = index.select_range(low, high)
        assert view.count == ground_truth_count(small_column, low, high)
    index.check_invariants()


def test_query_costs_decline_as_index_refines(index, rng):
    costs = []
    for _ in range(60):
        low = float(rng.uniform(1, 9.8e7))
        t0 = index.clock.now()
        index.select_range(low, low + 1e6)
        costs.append(index.clock.now() - t0)
    early = sum(costs[:10])
    late = sum(costs[-10:])
    assert late < early / 5


def test_inverted_range_rejected(index):
    with pytest.raises(QueryError, match="inverted"):
        index.select_range(100, 50)


def test_empty_range_allowed(index):
    view = index.select_range(500, 500)
    assert view.count == 0


def test_out_of_domain_ranges(index, small_column):
    assert index.select_range(-100, 0).count == 0
    assert (
        index.select_range(0, 2e8).count == small_column.row_count
    )


def test_random_crack_refines(index, rng):
    before = index.piece_count
    outcome = index.random_crack(rng)
    assert outcome is not None
    assert index.piece_count == before + 1
    assert index.tape.count(CrackOrigin.TUNING) == 1


def test_random_crack_respects_min_piece_size(index, rng):
    # Refuse to crack when every piece is at/below the floor.
    outcome = index.random_crack(
        rng, min_piece_size=index.row_count + 1
    )
    assert outcome is None


def test_crack_largest_piece_targets_biggest(index, rng):
    index.select_range(1_000_000, 2_000_000)
    sizes_before = [p.size for p in index.piece_map.pieces()]
    biggest = max(sizes_before)
    index.crack_largest_piece(rng)
    sizes_after = [p.size for p in index.piece_map.pieces()]
    assert max(sizes_after) < biggest or len(sizes_after) > len(
        sizes_before
    )


def test_sort_piece_at_sorts_the_piece(index):
    index.select_range(40_000_000, 60_000_000)
    piece = index.sort_piece_at(1)
    assert index.piece_map.piece_at_index(1) == piece  # no flag, no cut
    chunk = index.values[piece.start : piece.end]
    assert np.all(chunk[:-1] <= chunk[1:])
    index.check_invariants()


def test_copy_charged_once_on_first_touch(small_column):
    clock = SimClock()
    index = CrackerIndex(small_column, clock=clock)
    assert clock.total_charge.elements_materialized == 0
    index.select_range(1_000, 2_000)
    assert (
        clock.total_charge.elements_materialized
        == small_column.row_count
    )
    index.select_range(3_000, 4_000)
    assert (
        clock.total_charge.elements_materialized
        == small_column.row_count
    )


def test_empty_column_index(sim_clock):
    from repro.storage.column import Column

    empty = Column("E", np.array([], dtype=np.int64))
    index = CrackerIndex(empty, clock=sim_clock)
    assert index.select_range(0, 100).count == 0
    assert index.random_crack(np.random.default_rng(0)) is None


@pytest.mark.parametrize(
    "low, high",
    [
        pytest.param(10_000_000.0, 20_000_000.0, id="low-pivot-high-fresh"),
        pytest.param(20_000_000.0, 30_000_000.0, id="low-fresh-high-pivot"),
        pytest.param(10_000_000.0, 30_000_000.0, id="both-pivots"),
        pytest.param(20_000_000.0, 20_000_000.0, id="equal-fresh"),
    ],
)
def test_select_with_a_pivot_bound_is_two_ensure_cuts(
    small_column, low, high
):
    """One pair probe serves both bounds, and ``high`` is located again
    only when the ``low`` step cut the map; the tape, the clock and the
    charge totals cannot tell that from two ``ensure_cut`` calls."""

    def warmed() -> CrackerIndex:
        index = CrackerIndex(small_column, clock=SimClock())
        index.select_range(10_000_000.0, 30_000_000.0)
        return index

    selected, cut_twice = warmed(), warmed()
    view = selected.select_range(low, high)
    # An empty range (equal bounds) is answered without a probe or a
    # crack: the same as no cut at all.
    positions = (
        (cut_twice.ensure_cut(low), cut_twice.ensure_cut(high))
        if low < high
        else (0, 0)
    )
    assert (view.start, view.end) == positions
    assert selected.tape.export_state() == cut_twice.tape.export_state()
    assert selected.clock.now() == cut_twice.clock.now()
    assert selected.clock.total_charge == cut_twice.clock.total_charge
    assert selected.piece_map.pivots() == cut_twice.piece_map.pivots()
    assert selected.piece_map.cuts() == cut_twice.piece_map.cuts()
    selected.check_invariants()


def test_pivot_hits_reach_a_plain_clock_as_charges(small_column):
    """A pivot hit is one binary search over the pieces and nothing
    else: three of them add three probes' counters to the clock's
    total and move it by their price."""
    clock = SimClock()
    index = CrackerIndex(small_column, clock=clock)
    index.select_range(10_000_000.0, 30_000_000.0)
    before, start = CostCharge(), clock._now
    before += clock.total_charge
    index.select_range(10_000_000.0, 30_000_000.0)
    index.ensure_cut(10_000_000.0)
    steps = index.piece_count.bit_length()
    before += CostCharge(comparisons=3 * steps, seeks=3)
    assert clock.total_charge == before
    assert clock._now - start == 3 * clock.model.search_ps(index.piece_count)
