"""Unit tests for range queries."""

import pytest

from repro.engine.query import RangeQuery
from repro.errors import QueryError
from repro.storage.catalog import ColumnRef


def _query(low: float, high: float) -> RangeQuery:
    return RangeQuery(ColumnRef("R", "A1"), low, high)


def test_query_span():
    query = _query(10, 25)
    assert query.high - query.low == 15


def test_inverted_range_rejected():
    with pytest.raises(QueryError, match="inverted"):
        _query(10, 5)


def test_empty_range_allowed():
    query = _query(10, 10)
    assert query.high - query.low == 0


def test_sql_rendering():
    text = str(_query(5, 10))
    assert "SELECT A1 FROM R" in text
    assert "A1 >= 5" in text
    assert "A1 < 10" in text
