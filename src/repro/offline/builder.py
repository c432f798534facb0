"""The index builder.

Builds the full indexes it is handed, one at a time, charging each
sort to the shared clock.  Deciding what fits an idle window is the
advisor's job: a build that runs past the window makes the first
arriving query wait, which is exactly the penalty the paper's Figure 3
shows for offline indexing when ``T_init < Time_sort``.
"""

from __future__ import annotations

from repro.offline.fullindex import FullIndex
from repro.simtime.clock import Clock
from repro.storage.catalog import Catalog, ColumnRef


class IndexBuilder:
    """Builds and keeps full indexes.

    Args:
        catalog: resolves column references.
        clock: the shared time source; builds advance it.
    """

    def __init__(self, catalog: Catalog, clock: Clock) -> None:
        self.catalog = catalog
        self.clock = clock
        self.indexes: dict[ColumnRef, FullIndex] = {}

    def index_for(self, ref: ColumnRef) -> FullIndex | None:
        """The built index on ``ref``, or None."""
        index = self.indexes.get(ref)
        if index is not None and index.is_built:
            return index
        return None

    def build_now(self, ref: ColumnRef) -> None:
        """Build the index on ``ref`` now (a no-op if it is built)."""
        index = self.indexes.get(ref)
        if index is None:
            index = FullIndex(self.catalog.column(ref), self.clock)
            self.indexes[ref] = index
        index.build()
