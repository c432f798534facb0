"""Range queries -- the workload unit of the paper.

Every paper query has the form::

    SELECT A_i FROM R WHERE A_i >= low AND A_i < high

i.e. a half-open range select with a projection on the same attribute.
:class:`RangeQuery` captures exactly that; the selectivity helpers are
used by workload generators and the what-if optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import QueryError
from repro.storage.catalog import ColumnRef
from repro.storage.column import ColumnStats


@dataclass(frozen=True, slots=True)
class RangeQuery:
    """A half-open range select ``low <= value < high`` on one column.

    The bounds are any Python or numpy numbers, compared with the
    column's values exactly: the session normalises them into the
    column's own domain once, when it resolves the column
    (:func:`~repro.storage.dtypes.normalise_range`), so ``10.5`` on an
    integer column means ``11`` and an int64 bound beyond 2^53 is the
    integer it names.  A NaN bound selects nothing.
    """

    ref: ColumnRef
    low: int | float
    high: int | float

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise QueryError(
                f"range inverted on {self.ref}: "
                f"low={self.low} > high={self.high}"
            )

    @property
    def span(self) -> float:
        return self.high - self.low

    def selectivity(self, stats: ColumnStats) -> float:
        """Estimated fraction of rows qualifying, from catalog stats.

        Assumes a uniform value distribution (true for the paper's
        data); clamped to [0, 1].
        """
        if stats.value_span <= 0 or stats.row_count == 0:
            return 0.0
        clipped_low = max(self.low, stats.min_value)
        clipped_high = min(self.high, stats.max_value + 1)
        overlap = max(0.0, clipped_high - clipped_low)
        return min(1.0, overlap / (stats.value_span + 1))

    def __str__(self) -> str:
        return (
            f"SELECT {self.ref.column} FROM {self.ref.table} "
            f"WHERE {self.ref.column} >= {self.low} "
            f"AND {self.ref.column} < {self.high}"
        )
