"""Unit tests for columns."""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.storage.column import Column
from repro.storage.dtypes import INT32


def test_column_basic_properties():
    column = Column("A", np.array([5, 3, 9], dtype=np.int64))
    assert column.name == "A"
    assert column.row_count == 3
    assert len(column) == 3
    assert column.ctype.name == "int64"


def test_column_stats():
    column = Column("A", np.array([5, 3, 9], dtype=np.int64))
    assert column.stats.min_value == 3
    assert column.stats.max_value == 9
    assert column.stats.row_count == 3
    assert column.stats.value_span == 6


def test_empty_column_stats():
    column = Column("A", np.array([], dtype=np.int64))
    assert column.row_count == 0
    assert column.stats.row_count == 0


def test_base_array_is_read_only():
    column = Column("A", np.array([1, 2, 3], dtype=np.int64))
    with pytest.raises(ValueError):
        column.values[0] = 99


def test_copy_values_is_writable_and_independent():
    column = Column("A", np.array([1, 2, 3], dtype=np.int64))
    copy = column.copy_values()
    copy[0] = 99
    assert column.values[0] == 1


def test_explicit_ctype_coerces():
    column = Column("A", np.array([1, 2], dtype=np.int64), INT32)
    assert column.ctype is INT32
    assert column.values.dtype == np.int32


def test_nbytes_accounts_for_width():
    col32 = Column("A", np.array([1, 2], dtype=np.int64), INT32)
    col64 = Column("B", np.array([1, 2], dtype=np.int64))
    assert col32.nbytes == 8
    assert col64.nbytes == 16


def test_empty_name_rejected():
    with pytest.raises(SchemaError):
        Column("", np.array([1], dtype=np.int64))
