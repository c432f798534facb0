"""Unit tests for selection views."""

import numpy as np
import pytest

from repro.errors import QueryError
from repro.storage.views import (
    MaterializedResult,
    PositionsView,
    RangeView,
)


@pytest.fixture
def array() -> np.ndarray:
    return np.array([10, 20, 30, 40, 50], dtype=np.int64)


def test_range_view_slices_lazily(array):
    view = RangeView(array, 1, 4)
    assert view.count == 3
    assert view.values().tolist() == [20, 30, 40]


def test_range_view_rejects_bad_bounds(array):
    with pytest.raises(QueryError):
        RangeView(array, -1, 3)
    with pytest.raises(QueryError):
        RangeView(array, 3, 2)
    with pytest.raises(QueryError):
        RangeView(array, 0, 6)


def test_empty_range_view(array):
    view = RangeView(array, 2, 2)
    assert view.count == 0
    assert view.values().tolist() == []


def test_positions_view(array):
    view = PositionsView(array, np.array([0, 2, 4]))
    assert view.count == 3
    assert view.values().tolist() == [10, 30, 50]


def test_materialized_result():
    result = MaterializedResult(np.array([1, 2], dtype=np.int64))
    assert result.count == 2
    assert result.values().tolist() == [1, 2]
