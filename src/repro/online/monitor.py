"""Continuous workload monitoring.

Online indexing's defining feature (COLT [16]) is that statistics are
collected *while the workload runs*.  The monitor counts every range
query per column, in first-seen order: the holistic candidate order
reads the counts, and COLT's per-epoch activity is the difference
between two reevaluations' counts.

Holistic indexing reuses this exact monitor -- the paper's point is
that monitoring, idle-time exploitation and adaptive refinement live
in one kernel.
"""

from __future__ import annotations

from repro.storage.catalog import ColumnRef


class WorkloadMonitor:
    """Collects continuous workload statistics per column."""

    def __init__(self) -> None:
        #: Queries seen per column, in first-seen order.
        self.query_counts: dict[ColumnRef, int] = {}
        self.total_queries = 0

    # -- recording -------------------------------------------------------

    def record(self, ref: ColumnRef) -> None:
        """Record one range query on ``ref``, whatever its bounds."""
        self.total_queries += 1
        self.query_counts[ref] = self.query_counts.get(ref, 0) + 1

    def note_many(self, ref: ColumnRef, count: int) -> None:
        """Record a window's ``count`` queries on one column: the
        state ``count`` :meth:`record` calls leave."""
        if count:
            self.total_queries += count
            self.query_counts[ref] = self.query_counts.get(ref, 0) + count

    # -- statistics ------------------------------------------------------

    def observed_columns(self) -> list[ColumnRef]:
        """Columns seen so far, most-queried first."""
        counts = self.query_counts
        return sorted(counts, key=counts.__getitem__, reverse=True)

    # -- persistence -----------------------------------------------------

    def export_state(self) -> dict:
        """Plain-structure dump of all monitoring state (snapshots)."""
        columns = [
            {"table": ref.table, "column": ref.column, "query_count": count}
            for ref, count in self.query_counts.items()
        ]
        return {"total_queries": self.total_queries, "columns": columns}

    def restore_state(self, state: dict) -> None:
        """Adopt a state :meth:`export_state` wrote (snapshot restore).

        Raises:
            ValueError: on a state or column entry whose keys are not
                the ones :meth:`export_state` writes.
        """
        if state.keys() != {"total_queries", "columns"} or any(
            entry.keys() != {"table", "column", "query_count"}
            for entry in state["columns"]
        ):
            raise ValueError("monitor state has keys export_state never wrote")
        self.total_queries = int(state["total_queries"])
        self.query_counts = {
            ColumnRef(entry["table"], entry["column"]): int(
                entry["query_count"]
            )
            for entry in state["columns"]
        }
