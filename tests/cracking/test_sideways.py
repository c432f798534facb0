"""Unit tests for sideways cracking (multi-attribute queries)."""

import numpy as np
import pytest

from repro.cracking.index import CrackerIndex
from repro.cracking.sideways import SidewaysCrackerIndex
from repro.errors import CrackerError, QueryError
from repro.simtime.clock import SimClock
from repro.storage.loader import build_paper_table


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


def test_head_view_matches_predicate(index, table):
    low, high = 20_000_000, 60_000_000
    view = index.select_head(low, high, "A2")
    values = view.values()
    assert np.all((values >= low) & (values < high))


def test_repeated_queries_stay_correct(index, table, rng):
    for _ in range(30):
        low = float(rng.uniform(1, 9e7))
        high = low + float(rng.uniform(0, 2e7))
        view = index.select_project(low, high, "A2")
        expected = _expected_projection(table, low, high, "A2")
        assert np.array_equal(np.sort(view.values()), expected)
    index.check_invariants()


def test_maps_are_per_tail_and_lazy(index):
    assert index.map_count == 0
    index.select_project(1e6, 2e6, "A2")
    assert index.map_count == 1
    index.select_project(1e6, 2e6, "A3")
    assert index.map_count == 2
    index.select_project(3e6, 4e6, "A2")  # reuses the A2 map
    assert index.map_count == 2


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
