"""Unit tests for tables."""

import numpy as np
import pytest

from repro.errors import (
    DuplicateObjectError,
    SchemaError,
    UnknownColumnError,
)
from repro.storage.column import Column
from repro.storage.dtypes import INT64
from repro.storage.table import Table
from repro.storage.updates import PendingUpdates


def _column(name: str, values: list[int]) -> Column:
    return Column(name, np.array(values, dtype=np.int64))


def test_add_and_fetch_columns():
    table = Table("R")
    table.add_column(_column("A1", [1, 2, 3]))
    table.add_column(_column("A2", [4, 5, 6]))
    assert table.column_names == ["A1", "A2"]
    assert table.column("A2").values[0] == 4
    assert table.row_count == 3
    assert table.column_count == 2


def test_duplicate_column_rejected():
    table = Table("R")
    table.add_column(_column("A1", [1]))
    with pytest.raises(DuplicateObjectError):
        table.add_column(_column("A1", [2]))


def test_row_count_mismatch_rejected():
    table = Table("R")
    table.add_column(_column("A1", [1, 2]))
    with pytest.raises(SchemaError, match="rows"):
        table.add_column(_column("A2", [1, 2, 3]))


def test_unknown_column_lookup():
    table = Table("R")
    with pytest.raises(UnknownColumnError):
        table.column("missing")
    with pytest.raises(UnknownColumnError):
        table.updates_for("missing")


def test_iteration_yields_columns():
    table = Table("R")
    table.add_column(_column("A1", [1]))
    table.add_column(_column("A2", [2]))
    assert [c.name for c in table] == ["A1", "A2"]


def test_insert_rows_stages_per_column_deltas():
    table = Table("R")
    table.add_column(_column("A1", [1, 2]))
    table.add_column(_column("A2", [3, 4]))
    staged = table.insert_rows({"A1": [10], "A2": [20]})
    assert staged == 1
    assert table.updates_for("A1").pending_insert_count == 1
    assert table.updates_for("A2").pending_insert_count == 1


def test_insert_rows_requires_all_columns():
    table = Table("R")
    table.add_column(_column("A1", [1]))
    table.add_column(_column("A2", [2]))
    with pytest.raises(SchemaError, match="missing columns"):
        table.insert_rows({"A1": [10]})


def test_insert_rows_rejects_ragged_input():
    table = Table("R")
    table.add_column(_column("A1", [1]))
    table.add_column(_column("A2", [2]))
    with pytest.raises(SchemaError, match="ragged"):
        table.insert_rows({"A1": [10], "A2": [20, 30]})


def test_empty_table_name_rejected():
    with pytest.raises(SchemaError):
        Table("")


def test_nbytes_sums_columns():
    table = Table("R")
    table.add_column(_column("A1", [1, 2]))
    table.add_column(_column("A2", [3, 4]))
    assert table.nbytes == 32


def test_table_store_checks_a_delete_against_the_base_column():
    """A table's delta store knows its base column: a delete has to
    name a row inside it and that row's value.  (It used to stage
    ``(0, 40)`` -- and every select then dropped the row *holding* 40,
    position 3 -- and to accept position 99 of 5.)"""
    table = Table("R")
    table.add_column(_column("A1", [10, 20, 30, 40, 50]))
    store = table.updates_for("A1")
    for positions, values in (
        ([0], [40]),  # the value of another row
        ([99], [10]),  # past the end
        ([-1], [50]),  # numpy would wrap it to the last row
        ([1, 2, 0], [20, 30, 40]),  # one bad entry spoils the batch
    ):
        with pytest.raises(SchemaError):
            store.stage_deletes(positions, values)
        assert not store.has_pending()  # nothing staged before the raise
    assert store.stage_deletes([3, 0], [40, 10]) == 2
    assert store.deleted_values.tolist() == [10, 40]
    assert store.delete_positions.tolist() == [0, 3]


def test_standalone_store_takes_deletes_on_trust():
    store = PendingUpdates(INT64)
    assert store.stage_deletes([0, 99], [40, 7]) == 2
    assert not store.verifies_deletes


def test_table_store_refuses_to_delete_a_nan_row():
    """``count = base - deletes + inserts`` needs every pending delete
    to match a row of the result; a NaN row never compares equal, so
    ``values()`` could not drop it -- the store refuses it, and says
    why."""
    table = Table("R")
    table.add_column(Column("F", np.array([1.5, np.nan, 3.0])))
    store = table.updates_for("F")
    with pytest.raises(SchemaError, match="NaN"):
        store.stage_deletes([1], [np.nan])
    with pytest.raises(SchemaError, match="NaN"):
        store.stage_deletes([0, 1], [1.5, np.nan])
    assert not store.has_pending()
    assert store.stage_deletes([0], [1.5]) == 1


def test_restore_state_holds_arrays_to_what_staging_establishes():
    """A restored store is computed on unchecked, like a staged one:
    ``restore_state`` re-checks what ``stage_deletes`` checked and
    adopts nothing when it fails."""
    table = Table("R")
    table.add_column(_column("A1", [10, 20, 30, 40, 50]))
    store = table.updates_for("A1")
    store.stage_inserts([7])
    store.stage_deletes([4], [50])
    for inserts, positions, values in (
        ([1, 2], [3, 0], [40]),  # not aligned
        ([2, 1], [0, 3], [10, 40]),  # inserts unsorted
        ([1, 2], [3, 0], [40, 10]),  # deletes not sorted by value
        ([1, 2], [0, 0], [10, 10]),  # one row twice
        ([1, 2], [0, 3], [10, 41]),  # not the value that row holds
        ([1, 2], [0, 5], [10, 60]),  # past the end
        ([1, 2], [-1, 0], [5, 10]),  # numpy would wrap it
    ):
        with pytest.raises(SchemaError):
            store.restore_state(
                np.array(inserts), np.array(positions), np.array(values)
            )
        assert store.insert_values.tolist() == [7]
        assert store.delete_positions.tolist() == [4]
    store.restore_state(np.array([1, 2]), np.array([0, 3]), np.array([10, 40]))
    assert store.deleted_values.tolist() == [10, 40]
    # Restaging a restored position is a no-op, a fresh one is staged.
    assert store.stage_deletes([3, 1], [40, 20]) == 1
    # A standalone store has no base to ask, but sorts and aligns.
    loose = PendingUpdates(INT64)
    loose.restore_state(np.array([1]), np.array([9, 2]), np.array([5, 77]))
    with pytest.raises(SchemaError):
        loose.restore_state(np.array([1]), np.array([9, 2]), np.array([77, 5]))
