"""Unit tests for workload generators."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.storage.catalog import ColumnRef
from repro.workload.generators import (
    MultiColumnGenerator,
    SequentialRangeGenerator,
    SkewedRangeGenerator,
    UniformRangeGenerator,
)

REF = ColumnRef("R", "A1")


def test_uniform_ranges_have_fixed_span():
    generator = UniformRangeGenerator(REF, 0, 1_000_000, 0.01, seed=1)
    for query in generator.queries(50):
        assert query.high - query.low == pytest.approx(10_000)
        assert query.low >= 0
        assert query.high <= 1_000_000


def test_uniform_positions_cover_domain():
    generator = UniformRangeGenerator(REF, 0, 1_000_000, 0.01, seed=2)
    lows = [q.low for q in generator.queries(500)]
    assert min(lows) < 100_000
    assert max(lows) > 800_000


def test_uniform_determinism():
    a = UniformRangeGenerator(REF, 0, 1e6, 0.01, seed=3)
    b = UniformRangeGenerator(REF, 0, 1e6, 0.01, seed=3)
    assert [q.low for q in a.queries(10)] == [
        q.low for q in b.queries(10)
    ]


def test_uniform_validation():
    with pytest.raises(WorkloadError):
        UniformRangeGenerator(REF, 0, 1e6, 0.0)
    with pytest.raises(WorkloadError):
        UniformRangeGenerator(REF, 0, 1e6, 1.5)
    with pytest.raises(WorkloadError):
        UniformRangeGenerator(REF, 10, 10, 0.01)


def test_skewed_concentrates_queries():
    generator = SkewedRangeGenerator(
        REF, 0, 1_000_000, 0.01, regions=10, exponent=2.0, seed=4
    )
    lows = np.array([q.low for q in generator.queries(500)])
    # Zipf region popularity: the first region gets the majority.
    first_region = np.count_nonzero(lows < 100_000)
    assert first_region > 250


def test_skewed_validation():
    with pytest.raises(WorkloadError):
        SkewedRangeGenerator(REF, 0, 1e6, regions=0)
    with pytest.raises(WorkloadError):
        SkewedRangeGenerator(REF, 0, 1e6, exponent=1.0)


def test_sequential_sweeps_left_to_right():
    generator = SequentialRangeGenerator(REF, 0, 1_000, 0.1)
    lows = [generator.next_query().low for _ in range(5)]
    assert lows == sorted(lows)
    assert lows[1] - lows[0] == pytest.approx(100)


def test_sequential_wraps_around():
    generator = SequentialRangeGenerator(REF, 0, 1_000, 0.5)
    queries = [generator.next_query() for _ in range(4)]
    assert queries[0].low == 0
    # After reaching the end the cursor resets.
    assert any(q.low == 0 for q in queries[1:])


def test_sequential_overlap():
    generator = SequentialRangeGenerator(REF, 0, 1_000, 0.1, overlap=0.5)
    a = generator.next_query()
    b = generator.next_query()
    assert b.low == pytest.approx(a.low + 50)
    with pytest.raises(WorkloadError):
        SequentialRangeGenerator(REF, 0, 1_000, 0.1, overlap=1.0)


def _per_column(columns: int) -> list[UniformRangeGenerator]:
    return [
        UniformRangeGenerator(
            ColumnRef("R", f"A{i}"), 0, 1e6, 0.01, seed=i
        )
        for i in range(1, columns + 1)
    ]


def test_round_robin_visits_in_order():
    multi = MultiColumnGenerator(_per_column(3))
    columns = [q.ref.column for q in multi.queries(6)]
    assert columns == ["A1", "A2", "A3", "A1", "A2", "A3"]


def test_weighted_mode_respects_weights():
    multi = MultiColumnGenerator(
        _per_column(2), mode="weighted", weights=[9.0, 1.0], seed=5
    )
    columns = [q.ref.column for q in multi.queries(500)]
    assert columns.count("A1") > 350


def test_multi_column_validation():
    with pytest.raises(WorkloadError):
        MultiColumnGenerator([])
    with pytest.raises(WorkloadError):
        MultiColumnGenerator(_per_column(2), mode="weighted")
    with pytest.raises(WorkloadError):
        MultiColumnGenerator(
            _per_column(2), mode="weighted", weights=[0.0, 0.0]
        )
    with pytest.raises(WorkloadError):
        MultiColumnGenerator(_per_column(2), mode="lottery")
