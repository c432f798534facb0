"""Unit tests for the catalog."""

import numpy as np
import pytest

from repro.errors import DuplicateObjectError, UnknownTableError
from repro.storage.catalog import Catalog, ColumnRef
from repro.storage.column import Column
from repro.storage.table import Table


def _table(name: str) -> Table:
    table = Table(name)
    table.add_column(Column("A1", np.array([1, 5, 3], dtype=np.int64)))
    return table


def test_create_and_lookup():
    catalog = Catalog()
    catalog.create_table("R")
    assert catalog.has_table("R")
    assert catalog.table("R").name == "R"


def test_register_prebuilt_table():
    catalog = Catalog()
    catalog.register_table(_table("S"))
    assert catalog.table_names == ["S"]


def test_duplicate_table_rejected():
    catalog = Catalog()
    catalog.create_table("R")
    with pytest.raises(DuplicateObjectError):
        catalog.create_table("R")
    with pytest.raises(DuplicateObjectError):
        catalog.register_table(_table("R"))


def test_unknown_table_lookup():
    catalog = Catalog()
    with pytest.raises(UnknownTableError):
        catalog.table("missing")


def test_column_resolution_via_ref():
    catalog = Catalog()
    catalog.register_table(_table("S"))
    column = catalog.column(ColumnRef("S", "A1"))
    assert column.name == "A1"


def test_entries_describe_every_column():
    catalog = Catalog()
    catalog.register_table(_table("S"))
    catalog.register_table(_table("T"))
    entries = catalog.entries()
    assert len(entries) == 2
    refs = {str(e.ref) for e in entries}
    assert refs == {"S.A1", "T.A1"}
    entry = entries[0]
    assert entry.stats.row_count == 3
    assert entry.nbytes == 3 * entry.element_bytes


def test_column_ref_renders_qualified_name():
    assert str(ColumnRef("R", "A7")) == "R.A7"
