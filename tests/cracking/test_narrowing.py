"""Dtype narrowing of the cracker column (hot-path memory traffic)."""

import numpy as np
import pytest

from repro.cracking.index import CrackerIndex
from repro.cracking.updates import MaintainedCrackerIndex, merge_inserts
from repro.simtime.clock import SimClock
from repro.storage.column import Column
from repro.storage.updates import PendingUpdates


def _column(values, name="A1"):
    return Column(name, np.asarray(values, dtype=np.int64))


def test_int64_column_in_int32_range_is_narrowed():
    column = _column([5, 100, 2**31 - 1, 0])
    index = CrackerIndex(column)
    assert index.values.dtype == np.int32
    assert np.array_equal(index.values, column.values)


def test_out_of_range_column_keeps_int64():
    column = _column([5, 2**31, 7])
    index = CrackerIndex(column)
    assert index.values.dtype == np.int64


def test_narrowed_index_answers_queries_exactly(small_column):
    index = CrackerIndex(small_column, clock=SimClock())
    assert index.values.dtype == np.int32
    view = index.select_range(1e7, 3e7)
    expected = int(
        np.count_nonzero(
            (small_column.values >= 1e7) & (small_column.values < 3e7)
        )
    )
    assert view.count == expected
    index.check_invariants()


def test_merge_widens_on_out_of_range_inserts():
    column = _column([10, 20, 30])
    index = CrackerIndex(column)
    assert index.values.dtype == np.int32
    merge_inserts(index, np.array([2**31 + 5], dtype=np.int64))
    assert index.values.dtype == np.int64
    assert 2**31 + 5 in index.values.tolist()
    index.check_invariants()


def test_maintained_index_narrowing_roundtrip():
    from repro.storage.dtypes import INT64

    column = _column([10, 20, 30, 40, 50])
    pending = PendingUpdates(INT64, base=column.values)
    index = MaintainedCrackerIndex(column, pending, clock=SimClock())
    assert index.values.dtype == np.int32
    pending.stage_inserts(np.array([25], dtype=np.int64))
    view = index.select_range(0, 100)
    assert view.count == 6
    index.check_invariants()


def test_float_columns_never_narrowed():
    column = Column("F", np.array([1.5, 2.5], dtype=np.float64))
    index = CrackerIndex(column)
    assert index.values.dtype == np.float64
