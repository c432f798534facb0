"""Unit tests for the multi-client traffic generators."""

import pytest

from repro.errors import WorkloadError
from repro.storage.catalog import ColumnRef
from repro.workload.multiclient import (
    make_closed_loop_clients,
    parameterized_queries,
)

COLUMNS = [ColumnRef("R", "A1"), ColumnRef("R", "A2")]


def test_parameterized_queries_respect_domain_and_selectivity():
    queries = parameterized_queries(
        COLUMNS, 1, 1_000_000, count=200, selectivity=0.01, seed=1
    )
    assert len(queries) == 200
    width = (1_000_000 - 1) * 0.01
    for query in queries:
        assert query.ref in COLUMNS
        assert 1 <= query.low < query.high <= 1_000_000 + width
        assert query.high - query.low == pytest.approx(width)


def test_parameterized_queries_mostly_snap_to_grid():
    queries = parameterized_queries(
        COLUMNS, 0, 1_000, count=500, grid_points=10,
        grid_fraction=0.9, seed=2,
    )
    distinct_lows = {query.low for query in queries}
    # 90% of 500 queries share <= 8 grid positions.
    assert len(distinct_lows) < 100


def test_parameterized_queries_validate_inputs():
    with pytest.raises(WorkloadError):
        parameterized_queries([], 0, 1, count=1)
    with pytest.raises(WorkloadError):
        parameterized_queries(COLUMNS, 5, 5, count=1)
    with pytest.raises(WorkloadError):
        parameterized_queries(COLUMNS, 0, 1, count=1, selectivity=0.0)
    with pytest.raises(WorkloadError):
        parameterized_queries(COLUMNS, 0, 1, count=1, grid_points=2)


def test_closed_loop_clients_are_independent_of_client_count():
    four = make_closed_loop_clients(
        COLUMNS, 1, 1_000_000, clients=4, queries_per_client=50, seed=9
    )
    eight = make_closed_loop_clients(
        COLUMNS, 1, 1_000_000, clients=8, queries_per_client=50, seed=9
    )
    assert [w.client for w in four] == [w.client for w in eight[:4]]
    for a, b in zip(four, eight[:4]):
        assert a.queries == b.queries


def test_closed_loop_validates_counts():
    with pytest.raises(WorkloadError):
        make_closed_loop_clients(COLUMNS, 0, 1, clients=0, queries_per_client=1)
    with pytest.raises(WorkloadError):
        make_closed_loop_clients(COLUMNS, 0, 1, clients=1, queries_per_client=0)
