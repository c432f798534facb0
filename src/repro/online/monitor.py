"""Continuous workload monitoring.

Online indexing's defining feature (COLT [16]) is that statistics are
collected *while the workload runs*.  The monitor records every range
query with its virtual timestamp and keeps, per column, exactly what a
tuning decision reads:

* the query count (the holistic candidate order);
* the most recent timestamps (COLT's per-epoch activity).

Holistic indexing reuses this exact monitor -- the paper's point is
that monitoring, idle-time exploitation and adaptive refinement live
in one kernel.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from repro.storage.catalog import ColumnRef

#: Recent timestamps kept per column; the most an epoch count can see.
RECENT_WINDOW = 256


@dataclass(slots=True)
class ColumnActivity:
    """Per-column monitoring state."""

    query_count: int
    recent: deque[float]


class WorkloadMonitor:
    """Collects continuous workload statistics per column."""

    def __init__(self) -> None:
        self._activity: dict[ColumnRef, ColumnActivity] = {}
        self.total_queries = 0

    # -- recording -------------------------------------------------------

    def _activity_for(self, ref: ColumnRef) -> ColumnActivity:
        activity = self._activity.get(ref)
        if activity is None:
            activity = self._activity[ref] = ColumnActivity(
                query_count=0, recent=deque(maxlen=RECENT_WINDOW)
            )
        return activity

    def record(self, ref: ColumnRef, timestamp: float) -> None:
        """Record one range query on ``ref``, whatever its bounds."""
        activity = self._activity_for(ref)
        self.total_queries += 1
        activity.query_count += 1
        activity.recent.append(timestamp)

    def note_many(self, ref: ColumnRef, timestamps: Sequence[float]) -> None:
        """Record a window of queries on one column, in order: the
        state :meth:`record` per timestamp leaves, with the column
        looked up once."""
        if not len(timestamps):
            return
        activity = self._activity_for(ref)
        self.total_queries += len(timestamps)
        activity.query_count += len(timestamps)
        activity.recent.extend(timestamps)

    # -- statistics ------------------------------------------------------

    def observed_columns(self) -> list[ColumnRef]:
        """Columns seen so far, most-queried first."""
        return sorted(
            self._activity,
            key=lambda ref: self._activity[ref].query_count,
            reverse=True,
        )

    def epoch_counts(self, since: float) -> dict[ColumnRef, int]:
        """Per-column query counts with timestamps after ``since``."""
        counts: dict[ColumnRef, int] = {}
        for ref, activity in self._activity.items():
            fresh = sum(1 for t in activity.recent if t > since)
            if fresh:
                counts[ref] = fresh
        return counts

    # -- persistence -----------------------------------------------------

    def export_state(self) -> dict:
        """Plain-structure dump of all monitoring state (snapshots)."""
        columns = []
        for ref, activity in self._activity.items():
            columns.append(
                {
                    "table": ref.table,
                    "column": ref.column,
                    "query_count": activity.query_count,
                    "recent": [float(t) for t in activity.recent],
                }
            )
        return {"total_queries": self.total_queries, "columns": columns}

    def restore_state(self, state: dict) -> None:
        """Adopt a previously-exported monitor state (snapshot restore).

        Entries written before the monitor stopped keeping them also
        carry ``coverage``, ``first_seen``, ``last_seen``,
        ``histogram``, ``histogram_low`` and ``histogram_width``; they
        are ignored.
        """
        self._activity = {}
        self.total_queries = int(state["total_queries"])
        for entry in state["columns"]:
            ref = ColumnRef(entry["table"], entry["column"])
            self._activity[ref] = ColumnActivity(
                query_count=int(entry["query_count"]),
                recent=deque(entry["recent"], maxlen=RECENT_WINDOW),
            )
