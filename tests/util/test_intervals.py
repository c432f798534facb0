"""Unit tests for interval sets."""

import pytest

from repro.errors import QueryError
from repro.util.intervals import IntervalSet


def test_empty_set():
    iset = IntervalSet()
    assert len(iset) == 0
    assert iset.total_span() == 0
    assert not iset.covers(0, 1)
    assert iset.covers(5, 5)  # empty query is trivially covered
    assert not iset.contains_point(0)


def test_add_and_covers():
    iset = IntervalSet()
    iset.add(10, 20)
    assert iset.covers(10, 20)
    assert iset.covers(12, 18)
    assert not iset.covers(5, 15)
    assert not iset.covers(15, 25)


def test_half_open_semantics():
    iset = IntervalSet()
    iset.add(10, 20)
    assert iset.contains_point(10)
    assert iset.contains_point(19.999)
    assert not iset.contains_point(20)


def test_adjacent_intervals_coalesce():
    iset = IntervalSet()
    iset.add(10, 20)
    iset.add(20, 30)
    assert len(iset) == 1
    assert iset.covers(10, 30)


def test_overlapping_intervals_coalesce():
    iset = IntervalSet()
    iset.add(10, 20)
    iset.add(15, 25)
    iset.add(5, 12)
    assert iset.intervals() == [(5, 25)]


def test_disjoint_intervals_stay_separate():
    iset = IntervalSet()
    iset.add(10, 20)
    iset.add(30, 40)
    assert len(iset) == 2
    assert not iset.covers(15, 35)


def test_bridge_interval_merges_neighbours():
    iset = IntervalSet()
    iset.add(10, 20)
    iset.add(30, 40)
    iset.add(18, 32)
    assert iset.intervals() == [(10, 40)]


def test_empty_interval_ignored():
    iset = IntervalSet()
    iset.add(10, 10)
    assert len(iset) == 0


def test_inverted_interval_rejected():
    iset = IntervalSet()
    with pytest.raises(QueryError):
        iset.add(10, 5)
    with pytest.raises(QueryError):
        iset.covers(10, 5)
    with pytest.raises(QueryError):
        iset.uncovered_parts(10, 5)


def test_uncovered_parts_full_gap():
    iset = IntervalSet()
    assert iset.uncovered_parts(0, 10) == [(0, 10)]


def test_uncovered_parts_with_holes():
    iset = IntervalSet()
    iset.add(10, 20)
    iset.add(30, 40)
    gaps = iset.uncovered_parts(5, 45)
    assert gaps == [(5, 10), (20, 30), (40, 45)]


def test_uncovered_parts_fully_covered():
    iset = IntervalSet()
    iset.add(0, 100)
    assert iset.uncovered_parts(10, 90) == []


def test_total_span_sums_widths():
    iset = IntervalSet()
    iset.add(0, 10)
    iset.add(20, 25)
    assert iset.total_span() == 15


def test_add_many_equals_sequential_adds():
    import numpy as np

    from repro.util.intervals import IntervalSet

    rng = np.random.default_rng(3)
    for _ in range(40):
        ranges = []
        for _ in range(int(rng.integers(0, 12))):
            low = float(rng.uniform(0, 100))
            ranges.append((low, low + float(rng.uniform(0, 20))))
        one_by_one = IntervalSet()
        batched = IntervalSet()
        base = [
            (float(low), float(low + 5))
            for low in rng.uniform(0, 100, size=3)
        ]
        for low, high in base:
            one_by_one.add(low, high)
            batched.add(low, high)
        for low, high in ranges:
            one_by_one.add(low, high)
        batched.add_many(ranges)
        assert batched.intervals() == one_by_one.intervals()


def test_add_many_rejects_inverted_and_skips_empty():
    import pytest

    from repro.errors import QueryError
    from repro.util.intervals import IntervalSet

    intervals = IntervalSet()
    intervals.add_many([(1.0, 1.0), (2.0, 2.0)])
    assert intervals.intervals() == []
    with pytest.raises(QueryError):
        intervals.add_many([(3.0, 2.0)])


def _random_set(rng, size: int) -> list[tuple[float, float]]:
    ranges = []
    for low in rng.uniform(0, 1000, size=size).tolist():
        ranges.append((low, low + float(rng.uniform(0, 0.4))))
    return ranges


@pytest.mark.parametrize(
    "stored,batch",
    [(0, 5), (3, 40), (40, 3), (400, 1), (400, 8), (400, 60), (400, 400)],
)
def test_add_many_equals_sequential_adds_on_both_sides_of_the_split(
    stored, batch
):
    """Small batches into a large set take bisect splices, batches that
    rival the set take the merge sweep; both must leave the canonical
    representation that one ``add`` per range leaves."""
    import numpy as np

    rng = np.random.default_rng(stored * 1000 + batch)
    for _ in range(10):
        base = _random_set(rng, stored)
        ranges = _random_set(rng, batch)
        # Touching, nested, empty and bridging ranges ride along.
        ranges += [(r[1], r[1] + 0.1) for r in base[:3]]
        ranges += [(5.0, 5.0), (200.0, 260.0), (210.0, 220.0)]
        one_by_one, batched = IntervalSet(), IntervalSet()
        one_by_one.add_many(base)
        batched.add_many(base)
        for low, high in ranges:
            one_by_one.add(low, high)
        batched.add_many(ranges)
        assert batched.intervals() == one_by_one.intervals()


@pytest.mark.parametrize("stored", [0, 2, 400])
def test_add_many_raises_before_mutating(stored):
    import numpy as np

    intervals = IntervalSet()
    intervals.add_many(_random_set(np.random.default_rng(stored), stored))
    before = intervals.intervals()
    with pytest.raises(QueryError):
        intervals.add_many([(2000.0, 2001.0), (3.0, 2.0), (4.0, 5.0)])
    assert intervals.intervals() == before
