"""The catalog: tables by name plus system-wide metadata.

Besides name resolution, the catalog is the information source for the
"no knowledge" bootstrap of holistic indexing (paper §3): when zero
queries have been seen, the kernel can still enumerate columns with
their sizes and value ranges and start spreading tuning actions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from repro.errors import DuplicateObjectError, UnknownTableError
from repro.storage.column import Column, ColumnStats
from repro.storage.table import Table


class ColumnRef(NamedTuple):
    """A fully qualified column reference; a named tuple, so the
    dictionaries keyed by it hash and compare it in C."""

    table: str
    column: str

    def __str__(self) -> str:
        return f"{self.table}.{self.column}"


@dataclass(frozen=True, slots=True)
class CatalogEntry:
    """Catalog metadata for one column (used by tuning policies)."""

    ref: ColumnRef
    stats: ColumnStats
    element_bytes: int


class Catalog:
    """All tables of a database instance."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}

    def create_table(self, name: str) -> Table:
        """Create and register an empty table.

        Raises:
            DuplicateObjectError: if the name is taken.
        """
        if name in self._tables:
            raise DuplicateObjectError(f"table {name!r} already exists")
        table = Table(name)
        self._tables[name] = table
        return table

    def register_table(self, table: Table) -> Table:
        """Register an externally built table.

        Raises:
            DuplicateObjectError: if the name is taken.
        """
        if table.name in self._tables:
            raise DuplicateObjectError(f"table {table.name!r} already exists")
        self._tables[table.name] = table
        return table

    def table(self, name: str) -> Table:
        """Look up a table by name.

        Raises:
            UnknownTableError: if no such table exists.
        """
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(name) from None

    def column(self, ref: ColumnRef) -> Column:
        """Resolve a column reference."""
        return self.table(ref.table).column(ref.column)

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def entries(self) -> list[CatalogEntry]:
        """Catalog metadata for every column of every table."""
        found = []
        for table in self._tables.values():
            for column in table:
                found.append(
                    CatalogEntry(
                        ref=ColumnRef(table.name, column.name),
                        stats=column.stats,
                        element_bytes=column.ctype.element_bytes,
                    )
                )
        return found

    def __repr__(self) -> str:
        return f"Catalog(tables={list(self._tables)})"
