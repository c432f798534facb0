"""Unit tests for sideways cracking (multi-attribute queries)."""

import numpy as np
import pytest

from repro.cracking.engine import crack_in_three, crack_in_two
from repro.cracking.index import CrackerIndex
from repro.cracking.sideways import SidewaysCrackerIndex
from repro.errors import CrackerError, QueryError
from repro.simtime.clock import SimClock
from repro.storage.column import Column
from repro.storage.loader import build_paper_table
from repro.storage.table import Table


@pytest.fixture
def table():
    return build_paper_table(rows=5_000, columns=3, seed=21)


@pytest.fixture
def index(table) -> SidewaysCrackerIndex:
    return SidewaysCrackerIndex(table, "A1", clock=SimClock())


def _expected_projection(table, low, high, tail):
    head = table.column("A1").values
    mask = (head >= low) & (head < high)
    return np.sort(table.column(tail).values[mask])


def test_select_project_matches_positional_join(index, table):
    low, high = 20_000_000, 60_000_000
    view = index.select_project(low, high, "A2")
    got = np.sort(view.values())
    assert np.array_equal(got, _expected_projection(table, low, high, "A2"))
    index.check_invariants()


def test_repeated_queries_stay_correct(index, table, rng):
    for _ in range(30):
        low = float(rng.uniform(1, 9e7))
        high = low + float(rng.uniform(0, 2e7))
        view = index.select_project(low, high, "A2")
        expected = _expected_projection(table, low, high, "A2")
        assert np.array_equal(np.sort(view.values()), expected)
    index.check_invariants()


def _rowid_map(n: int = 1_000):
    """A map whose tail is the head's row ids, and the head's values."""
    values = np.random.default_rng(0).integers(0, 10_000, n)
    table = Table("R")
    table.add_column(Column("A1", values.astype(np.int64)))
    table.add_column(Column("rowid", np.arange(n, dtype=np.int64)))
    index = SidewaysCrackerIndex(table, "A1", clock=SimClock())
    return index.map_for("rowid"), table.column("A1").values


def test_single_bound_crack_keeps_the_map_aligned():
    """A range open to the top cracks at its low bound only: every row
    id moves with its value, and the split and charge are the value-only
    ``crack_in_two``'s."""
    pair, base = _rowid_map()
    reference = base.copy()
    split, charge = crack_in_two(reference, 0, len(reference), 5_000)
    position, end, got = pair.select(5_000, pair.largest + 1)
    assert (position, end) == (split, len(base))
    assert got == charge
    assert np.array_equal(base[pair.tail], pair.head)
    assert np.all(pair.head[:position] < 5_000)
    assert np.all(pair.head[position:] >= 5_000)


def test_two_bounds_in_one_piece_keep_the_map_aligned():
    """Both bounds in one piece crack it three ways in one pass: every
    row id moves with its value, and the splits and charge are the
    value-only ``crack_in_three``'s."""
    pair, base = _rowid_map()
    reference = base.copy()
    lo, hi, charge = crack_in_three(
        reference, 0, len(reference), 2_000, 8_000
    )
    assert pair.select(2_000, 8_000) == (lo, hi, charge)
    assert np.array_equal(base[pair.tail], pair.head)
    assert np.all(pair.head[:lo] < 2_000)
    assert np.all((pair.head[lo:hi] >= 2_000) & (pair.head[lo:hi] < 8_000))
    assert np.all(pair.head[hi:] >= 8_000)


def test_maps_are_per_tail_and_lazy(index):
    assert len(index._maps) == 0
    index.select_project(1e6, 2e6, "A2")
    assert len(index._maps) == 1
    index.select_project(1e6, 2e6, "A3")
    assert len(index._maps) == 2
    index.select_project(3e6, 4e6, "A2")  # reuses the A2 map
    assert len(index._maps) == 2


def test_maps_refine_independently(index):
    index.select_project(1e6, 2e6, "A2")
    a2_cracks = index.map_for("A2").pieces.crack_count
    index.select_project(1e6, 2e6, "A3")
    # The A2 map did not change when A3's map was cracked.
    assert index.map_for("A2").pieces.crack_count == a2_cracks


def test_map_creation_charged_once(table):
    clock = SimClock()
    index = SidewaysCrackerIndex(table, "A1", clock=clock)
    index.select_project(1e6, 2e6, "A2")
    first = clock.total_charge.elements_materialized
    assert first == 2 * table.row_count
    index.select_project(3e6, 4e6, "A2")
    assert clock.total_charge.elements_materialized == first


def test_tail_equal_to_head_rejected(index):
    with pytest.raises(CrackerError, match="different"):
        index.select_project(0, 1, "A1")


def test_inverted_range_rejected(index):
    with pytest.raises(QueryError):
        index.select_project(10, 5, "A2")


def test_repeated_bounds_do_not_recrack(index):
    index.select_project(1e7, 2e7, "A2")
    cracks = index.map_for("A2").pieces.crack_count
    index.select_project(1e7, 2e7, "A2")
    assert index.map_for("A2").pieces.crack_count == cracks


def test_randomized_sequences_keep_invariants(index, table, rng):
    """Long mixed-tail select_project runs: every result exact, piece
    maps structurally sound at checkpoints along the way."""
    tails = ("A2", "A3")
    for i in range(60):
        low = float(rng.uniform(1, 9.5e7))
        high = low + float(rng.uniform(0, 1.5e7))
        tail = tails[int(rng.integers(0, len(tails)))]
        view = index.select_project(low, high, tail)
        expected = _expected_projection(table, low, high, tail)
        assert np.array_equal(np.sort(view.values()), expected)
        if i % 10 == 9:
            index.check_invariants()
    index.check_invariants()


def test_map_cracks_match_standalone_cracker(table, rng):
    """Each (head, tail) map refines its head copy exactly like an
    independent single-column CrackerIndex fed the same bound
    subsequence -- same pivots, same cut positions, head multiset
    preserved."""
    index = SidewaysCrackerIndex(table, "A1", clock=SimClock())
    standalones = {
        tail: CrackerIndex(table.column("A1"), clock=SimClock())
        for tail in ("A2", "A3")
    }
    for _ in range(25):
        low = float(rng.uniform(1, 9e7))
        high = low + float(rng.uniform(1e5, 2e7))
        tail = "A2" if rng.random() < 0.5 else "A3"
        index.select_project(low, high, tail)
        standalones[tail].select_range(low, high)
    base = np.sort(table.column("A1").values)
    for tail, standalone in standalones.items():
        pair = index.map_for(tail)
        assert pair.pieces.pivots() == standalone.piece_map.pivots()
        assert pair.pieces.cuts() == standalone.piece_map.cuts()
        # Cut positions are order-independent: cut(v) == #values < v.
        for pivot, cut in zip(pair.pieces.pivots(), pair.pieces.cuts()):
            assert cut == int(np.searchsorted(base, pivot, side="left"))
        assert np.array_equal(np.sort(pair.head), base)
