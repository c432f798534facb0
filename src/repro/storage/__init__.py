"""Column-store storage substrate.

Rebuilds the MonetDB storage layer the paper's prototype lived in:
typed immutable columns (BAT tails), tables, a catalog, pending-update
deltas, selection views, and data generators for the paper's relation
``R(A1..A10)``.
"""

from repro.storage.catalog import Catalog, CatalogEntry, ColumnRef
from repro.storage.column import Column, ColumnStats
from repro.storage.database import Database
from repro.storage.dtypes import (
    FLOAT64,
    INT32,
    INT64,
    ColumnType,
    coerce_array,
    type_by_name,
    type_for_array,
)
from repro.storage.loader import (
    build_paper_table,
    generate_uniform_column,
)
from repro.storage.table import Table
from repro.storage.updates import PendingUpdates
from repro.storage.views import (
    MaterializedResult,
    PendingOverlay,
    PositionsView,
    RangeView,
    SelectionResult,
)

__all__ = [
    "Catalog",
    "CatalogEntry",
    "Column",
    "ColumnRef",
    "ColumnStats",
    "ColumnType",
    "Database",
    "FLOAT64",
    "INT32",
    "INT64",
    "MaterializedResult",
    "PendingOverlay",
    "PendingUpdates",
    "PositionsView",
    "RangeView",
    "SelectionResult",
    "Table",
    "build_paper_table",
    "coerce_array",
    "generate_uniform_column",
    "type_by_name",
    "type_for_array",
]
