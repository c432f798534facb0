"""Continuous workload monitoring.

Online indexing's defining feature (COLT [16]) is that statistics are
collected *while the workload runs*.  The monitor records every range
query with its virtual timestamp and keeps, per column, exactly what a
tuning decision reads:

* the query count (the holistic candidate order and the hot-column
  trigger);
* the most recent timestamps (COLT's per-epoch activity);
* an equi-width histogram of requested value ranges (hot-range
  detection for the holistic "no idle time" boost).

Holistic indexing reuses this exact monitor -- the paper's point is
that monitoring, idle-time exploitation and adaptive refinement live
in one kernel.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import PersistError
from repro.storage.catalog import Catalog, ColumnRef

#: Resolution of the per-column range histograms.  A power of two, so
#: ``histogram_width * HISTOGRAM_BINS`` is exact and any offset below it
#: floor-divides to a valid bin.
HISTOGRAM_BINS = 64
#: Recent timestamps kept per column; the most an epoch count can see.
RECENT_WINDOW = 256


def _bin(offset: float, width: float) -> int:
    """Histogram bin of a bound ``offset`` above the domain's low end.

    The bound is clamped to the domain *before* the floor division, so
    an infinite one never reaches it.
    """
    if offset <= 0.0:
        return 0
    if offset >= width * HISTOGRAM_BINS:
        return HISTOGRAM_BINS - 1
    return int(offset // width)


@dataclass(slots=True)
class ColumnActivity:
    """Per-column monitoring state.

    The histogram is stored as a difference array: ``steps[b]`` is the
    count of bin ``b`` minus the count of bin ``b - 1``, so a query
    over any number of bins is two increments.  The last entry only
    absorbs the decrement of ranges that reach the top bin.
    """

    query_count: int
    recent: deque[float]
    steps: list[int]
    histogram_low: float
    histogram_width: float

    def histogram(self) -> np.ndarray:
        """Queries per bin, materialised from the difference array."""
        return np.cumsum(self.steps[:-1], dtype=np.int64)


class WorkloadMonitor:
    """Collects continuous workload statistics per column.

    Args:
        catalog: used to initialize histogram domains from column stats.
    """

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self._activity: dict[ColumnRef, ColumnActivity] = {}
        self.total_queries = 0

    # -- recording -------------------------------------------------------

    def _activity_for(self, ref: ColumnRef) -> ColumnActivity:
        activity = self._activity.get(ref)
        if activity is None:
            stats = self.catalog.column(ref).stats
            activity = self._activity[ref] = ColumnActivity(
                query_count=0,
                recent=deque(maxlen=RECENT_WINDOW),
                steps=[0] * (HISTOGRAM_BINS + 1),
                histogram_low=stats.min_value,
                histogram_width=max(stats.value_span, 1.0) / HISTOGRAM_BINS,
            )
        return activity

    def _note(
        self,
        activity: ColumnActivity,
        low: float,
        high: float,
        timestamp: float,
    ) -> None:
        """The one update rule: count one query on ``activity``.

        A non-empty range increments every histogram bin it touches:
        ``[x, +inf)`` reaches the top bin and ``(-inf, x)`` starts at
        the bottom one.  A NaN bound fails ``high > low`` and, like an
        empty range, is counted without touching a bin.
        """
        self.total_queries += 1
        activity.query_count += 1
        activity.recent.append(timestamp)
        if high > low:
            origin = activity.histogram_low
            width = activity.histogram_width
            steps = activity.steps
            steps[_bin(low - origin, width)] += 1
            steps[_bin(high - origin, width) + 1] -= 1

    def record(
        self, ref: ColumnRef, low: float, high: float, timestamp: float
    ) -> None:
        """Record one range query."""
        self._note(self._activity_for(ref), low, high, timestamp)

    def note_many(
        self,
        ref: ColumnRef,
        lows: Sequence[float],
        highs: Sequence[float],
        timestamps: Sequence[float],
    ) -> None:
        """Record a window of queries on one column, in order.

        ``lows``/``highs`` are the window's predicate bounds aligned
        with ``timestamps``; the column is looked up once and every
        query goes through the same rule as :meth:`record`.
        """
        if not len(timestamps):
            return
        activity = self._activity_for(ref)
        for low, high, timestamp in zip(lows, highs, timestamps):
            self._note(activity, low, high, timestamp)

    # -- statistics ------------------------------------------------------

    def query_count(self, ref: ColumnRef) -> int:
        activity = self._activity.get(ref)
        return activity.query_count if activity else 0

    def observed_columns(self) -> list[ColumnRef]:
        """Columns seen so far, most-queried first."""
        return sorted(
            self._activity,
            key=lambda ref: self._activity[ref].query_count,
            reverse=True,
        )

    def hot_ranges(
        self, ref: ColumnRef, min_queries: int
    ) -> list[tuple[float, float, int]]:
        """Value ranges requested at least ``min_queries`` times.

        Returns ``(low, high, count)`` triples from the histogram, with
        adjacent hot bins coalesced.  This implements the paper's "more
        than n queries cracked this column/range" trigger.
        """
        activity = self._activity.get(ref)
        if activity is None:
            return []
        counts = activity.histogram()
        origin = activity.histogram_low
        width = activity.histogram_width
        ranges: list[tuple[float, float, int]] = []
        start: int | None = None
        for i, flag in enumerate([*(counts >= min_queries), False]):
            if flag and start is None:
                start = i
            elif not flag and start is not None:
                ranges.append(
                    (
                        origin + start * width,
                        origin + i * width,
                        int(counts[start:i].max()),
                    )
                )
                start = None
        return ranges

    def is_column_hot(self, ref: ColumnRef, min_queries: int) -> bool:
        """Whether ``ref`` has absorbed at least ``min_queries`` queries."""
        return self.query_count(ref) >= min_queries

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
                    "histogram": activity.histogram().tolist(),
                    "histogram_low": activity.histogram_low,
                    "histogram_width": activity.histogram_width,
                }
            )
        return {"total_queries": self.total_queries, "columns": columns}

    def restore_state(self, state: dict) -> None:
        """Adopt a previously-exported monitor state (snapshot restore).

        Entries written before the monitor stopped keeping them also
        carry ``coverage``, ``first_seen`` and ``last_seen``; they are
        ignored.
        """
        self._activity = {}
        self.total_queries = int(state["total_queries"])
        for entry in state["columns"]:
            ref = ColumnRef(entry["table"], entry["column"])
            histogram = entry["histogram"]
            if len(histogram) != HISTOGRAM_BINS:
                raise PersistError(
                    f"monitor histogram of {ref} has {len(histogram)} "
                    f"bins, expected {HISTOGRAM_BINS}"
                )
            self._activity[ref] = ColumnActivity(
                query_count=int(entry["query_count"]),
                recent=deque(entry["recent"], maxlen=RECENT_WINDOW),
                steps=np.diff(histogram, prepend=0, append=0).tolist(),
                histogram_low=float(entry["histogram_low"]),
                histogram_width=float(entry["histogram_width"]),
            )
