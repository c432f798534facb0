"""Columns: the basic storage unit of the column store.

A :class:`Column` owns an immutable base array (insertion order, like a
MonetDB BAT tail) plus lightweight catalog statistics.  Indexes
(cracker or full) never mutate the base array; they keep their own
physical copies, exactly as MonetDB cracking copies the column on first
touch.  Pending updates live in a delta (:mod:`repro.storage.updates`)
until an index merges them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SchemaError
from repro.storage.dtypes import ColumnType, coerce_array, type_for_array


@dataclass(frozen=True, slots=True)
class ColumnStats:
    """Catalog statistics for a column.

    These power the "no knowledge" bootstrap of holistic indexing
    (paper §3): with zero workload history the kernel still knows each
    column's cardinality and value range from the catalog.
    """

    row_count: int
    min_value: float
    max_value: float

    @property
    def value_span(self) -> float:
        return self.max_value - self.min_value


class Column:
    """An immutable, typed, named column of values.

    Args:
        name: column name, unique within its table.
        values: 1-D array-like of the column's values.
        ctype: explicit type; inferred from ``values`` when omitted.
        stats: known catalog statistics.  Computing them scans the
            whole array, so a snapshot restore takes them from its
            manifest instead.
    """

    def __init__(
        self,
        name: str,
        values: object,
        ctype: ColumnType | None = None,
        stats: ColumnStats | None = None,
    ) -> None:
        if not name:
            raise SchemaError("column name must be non-empty")
        array = np.asarray(values)
        if ctype is None:
            ctype = type_for_array(array)
        self.name = name
        self.ctype = ctype
        self._values = coerce_array(array, ctype)
        self._values.setflags(write=False)
        if stats is not None and stats.row_count != len(self._values):
            raise SchemaError(
                f"supplied stats cover {stats.row_count} rows, column "
                f"has {len(self._values)}"
            )
        self._stats = stats if stats is not None else self._compute_stats()

    def _compute_stats(self) -> ColumnStats:
        n = len(self._values)
        if n == 0:
            return ColumnStats(0, 0.0, 0.0)
        return ColumnStats(
            row_count=n,
            min_value=float(self._values.min()),
            max_value=float(self._values.max()),
        )

    @property
    def values(self) -> np.ndarray:
        """The read-only base array (insertion order)."""
        return self._values

    @property
    def row_count(self) -> int:
        return len(self._values)

    @property
    def stats(self) -> ColumnStats:
        return self._stats

    @property
    def nbytes(self) -> int:
        """Physical size of the base array in bytes."""
        return self.row_count * self.ctype.element_bytes

    def copy_values(self) -> np.ndarray:
        """A writable copy of the base array (for index construction)."""
        return self._values.copy()

    def __len__(self) -> int:
        return self.row_count

    def __repr__(self) -> str:
        return (
            f"Column({self.name!r}, {self.ctype.name}, "
            f"rows={self.row_count})"
        )
