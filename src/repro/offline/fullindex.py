"""Full (complete, sorted) indexes -- the offline indexing primitive.

Offline indexing materializes a totally sorted copy of a column before
queries arrive.  Selects are then two binary searches returning a
contiguous view; the build itself is priced as a full sort, the
dominant number of the paper's Figure 3 (``Time_sort = 28.4 s``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import IndexingError, QueryError
from repro.simtime.clock import Clock, SimClock
from repro.storage.column import Column
from repro.storage.dtypes import Key
from repro.storage.updates import cut_at
from repro.storage.views import RangeView


class FullIndex:
    """A complete sorted index over one column.

    Args:
        column: the base column.
        clock: time source charged for the build and probes.

    The index starts *unbuilt*; call :meth:`build` (typically from the
    offline builder, inside an idle window) before probing.
    """

    def __init__(
        self,
        column: Column,
        clock: Clock | None = None,
    ) -> None:
        self.column = column
        self.clock: Clock = clock if clock is not None else SimClock()
        self._sorted: np.ndarray | None = None
        self.built_at: float | None = None

    @property
    def is_built(self) -> bool:
        return self._sorted is not None

    @property
    def sorted_values(self) -> np.ndarray:
        """The sorted array.

        Raises:
            IndexingError: if the index has not been built.
        """
        if self._sorted is None:
            raise IndexingError(
                f"index on {self.column.name!r} not built yet"
            )
        return self._sorted

    def build(self) -> float:
        """Sort the column; returns the (virtual) seconds it took.

        Building twice is a no-op costing nothing.
        """
        if self._sorted is not None:
            return 0.0
        self._sorted = np.sort(self.column.values, kind="quicksort")
        started = self.clock.now()
        self.clock.charge_sort(self.column.row_count, 0)
        self.built_at = self.clock.now()
        return self.built_at - started

    def select_range(self, low: Key, high: Key) -> RangeView:
        """Answer ``low <= value < high`` with two binary searches.

        ``low``/``high`` are keys in the column's domain
        (:func:`~repro.storage.dtypes.normalise_range`).

        Raises:
            IndexingError: if the index has not been built.
            QueryError: if ``low > high``.
        """
        if low > high:
            raise QueryError(f"range inverted: low={low} > high={high}")
        values = self.sorted_values
        start = cut_at(values, low)
        end = cut_at(values, high)
        # Price the probes at the *projected* index depth: a reduced-
        # scale run stands in for a paper-scale index, and log2(n)
        # would otherwise leak the physical scale into the timings.
        model = getattr(self.clock, "model", None)
        scale = model.scale if model is not None else 1.0
        n = max(1, int(len(values) * scale))
        self.clock.charge_probes(n, 2)
        return RangeView(values, start, end)

    def __repr__(self) -> str:
        state = "built" if self.is_built else "unbuilt"
        return f"FullIndex({self.column.name!r}, {state})"
