"""Tables: named collections of equal-length columns."""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.errors import (
    DuplicateObjectError,
    SchemaError,
    UnknownColumnError,
)
from repro.storage.column import Column
from repro.storage.dtypes import coerce_array
from repro.storage.updates import PendingUpdates


class Table:
    """A named table of columns sharing one row count.

    Columns are added via :meth:`add_column`; bulk row appends rebuild
    all columns consistently; trickle updates go through per-column
    :class:`PendingUpdates` deltas obtained via :meth:`updates_for`.
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise SchemaError("table name must be non-empty")
        self.name = name
        self._columns: dict[str, Column] = {}
        self._updates: dict[str, PendingUpdates] = {}

    # -- schema --------------------------------------------------------

    def add_column(self, column: Column) -> Column:
        """Register ``column``; all columns must share the row count.

        Raises:
            DuplicateObjectError: if a column of this name exists.
            SchemaError: if the row count disagrees with the table.
        """
        if column.name in self._columns:
            raise DuplicateObjectError(
                f"column {column.name!r} already exists in table "
                f"{self.name!r}"
            )
        if self._columns and column.row_count != self.row_count:
            raise SchemaError(
                f"column {column.name!r} has {column.row_count} rows, "
                f"table {self.name!r} has {self.row_count}"
            )
        self._columns[column.name] = column
        self._updates[column.name] = PendingUpdates(
            column.ctype, base=column.values
        )
        return column

    def column(self, name: str) -> Column:
        """Look up a column by name.

        Raises:
            UnknownColumnError: if no such column exists.
        """
        try:
            return self._columns[name]
        except KeyError:
            raise UnknownColumnError(self.name, name) from None

    def has_column(self, name: str) -> bool:
        return name in self._columns

    @property
    def column_names(self) -> list[str]:
        return list(self._columns)

    @property
    def column_count(self) -> int:
        return len(self._columns)

    @property
    def row_count(self) -> int:
        if not self._columns:
            return 0
        return next(iter(self._columns.values())).row_count

    def __iter__(self) -> Iterator[Column]:
        return iter(self._columns.values())

    # -- updates -------------------------------------------------------

    def updates_for(self, name: str) -> PendingUpdates:
        """The pending-updates delta of column ``name``.

        Raises:
            UnknownColumnError: if no such column exists.
        """
        if name not in self._updates:
            raise UnknownColumnError(self.name, name)
        return self._updates[name]

    def insert_rows(self, rows: Mapping[str, object]) -> int:
        """Stage an insert of rows given per-column value arrays.

        Every column of the table must be present in ``rows`` and all
        arrays must be the same length.  Every name is resolved and
        every array coerced before any column stages, so a refused
        insert stages nothing.  Returns the number of rows staged.

        Raises:
            SchemaError: on a missing column, ragged arrays or values
                a column's type cannot hold.
            UnknownColumnError: on a name the table has no column of.
        """
        missing = set(self._columns) - set(rows)
        if missing:
            raise SchemaError(
                f"insert into {self.name!r} missing columns: "
                f"{sorted(missing)}"
            )
        arrays = {}
        for name, values in rows.items():
            if name not in self._columns:
                raise UnknownColumnError(self.name, name)
            arrays[name] = coerce_array(values, self._columns[name].ctype)
        if len(set(map(len, arrays.values()))) > 1:
            lengths = {name: len(array) for name, array in arrays.items()}
            raise SchemaError(f"ragged insert into {self.name!r}: {lengths}")
        staged = 0
        for name, array in arrays.items():
            staged = self._updates[name].stage_inserts(array)
        return staged

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, columns={self.column_count}, "
            f"rows={self.row_count})"
        )
