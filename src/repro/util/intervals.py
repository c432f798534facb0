"""Half-open interval sets.

Used by the workload monitor to summarize queried ranges.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator

from repro.errors import QueryError


#: :meth:`IntervalSet.add_many` re-sorts the whole set only when the
#: batch is more than 1/_SWEEP_RATIO of it: one bisect splice costs
#: about what sorting and sweeping six stored intervals does (measured
#: 0.75 us against 0.1 us an interval).
_SWEEP_RATIO = 6


class IntervalSet:
    """A set of disjoint, sorted, half-open intervals ``[low, high)``.

    Adjacent/overlapping intervals are coalesced on insertion, so the
    internal lists stay minimal and lookups are O(log k).
    """

    def __init__(self) -> None:
        self._lows: list[float] = []
        self._highs: list[float] = []

    def __len__(self) -> int:
        return len(self._lows)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(zip(self._lows, self._highs))

    def intervals(self) -> list[tuple[float, float]]:
        """All intervals as ``(low, high)`` pairs (copy)."""
        return list(zip(self._lows, self._highs))

    def total_span(self) -> float:
        """Sum of interval widths."""
        return sum(h - l for l, h in zip(self._lows, self._highs))

    def add(self, low: float, high: float) -> None:
        """Insert ``[low, high)``, coalescing with existing intervals.

        Empty intervals are ignored.

        Raises:
            QueryError: if ``low > high``.
        """
        if low > high:
            raise QueryError(f"interval inverted: [{low}, {high})")
        if low == high:
            return
        # Find every existing interval that touches [low, high).
        first = bisect_left(self._highs, low)
        last = bisect_right(self._lows, high)
        if first < last:
            low = min(low, self._lows[first])
            high = max(high, self._highs[last - 1])
        del self._lows[first:last]
        del self._highs[first:last]
        self._lows.insert(first, low)
        self._highs.insert(first, high)

    def add_many(self, ranges: list[tuple[float, float]]) -> None:
        """Insert many intervals at once.

        Equivalent to calling :meth:`add` per range (set union is
        order-independent and the representation is canonical).  A
        batch that rivals the set in size is merged in one sort plus
        one linear sweep instead of k list splices; a batch small
        against the set takes the k bisect splices, which cost the
        batch and not a rebuild of everything accumulated so far.

        Raises:
            QueryError: if any range is inverted (nothing is added).
        """
        for low, high in ranges:
            if low > high:
                raise QueryError(f"interval inverted: [{low}, {high})")
        fresh = [r for r in ranges if r[0] < r[1]]
        if not fresh:
            return
        if _SWEEP_RATIO * len(fresh) <= len(self._lows):
            for low, high in fresh:
                self.add(low, high)
            return
        merged = sorted(
            [*zip(self._lows, self._highs), *fresh]
        )
        lows: list[float] = []
        highs: list[float] = []
        current_low, current_high = merged[0]
        for low, high in merged[1:]:
            if low <= current_high:
                if high > current_high:
                    current_high = high
            else:
                lows.append(current_low)
                highs.append(current_high)
                current_low, current_high = low, high
        lows.append(current_low)
        highs.append(current_high)
        self._lows = lows
        self._highs = highs

    def covers(self, low: float, high: float) -> bool:
        """Whether one stored interval fully contains ``[low, high)``.

        Raises:
            QueryError: if ``low > high``.
        """
        if low > high:
            raise QueryError(f"interval inverted: [{low}, {high})")
        if low == high:
            return True
        i = bisect_right(self._lows, low) - 1
        return i >= 0 and self._highs[i] >= high

    def contains_point(self, value: float) -> bool:
        """Whether ``value`` lies inside any stored interval."""
        i = bisect_right(self._lows, value) - 1
        return i >= 0 and value < self._highs[i]

    def uncovered_parts(
        self, low: float, high: float
    ) -> list[tuple[float, float]]:
        """The sub-intervals of ``[low, high)`` not yet covered.

        Raises:
            QueryError: if ``low > high``.
        """
        if low > high:
            raise QueryError(f"interval inverted: [{low}, {high})")
        gaps: list[tuple[float, float]] = []
        cursor = low
        start = max(0, bisect_left(self._highs, low))
        for i in range(start, len(self._lows)):
            iv_low, iv_high = self._lows[i], self._highs[i]
            if iv_low >= high:
                break
            if iv_low > cursor:
                gaps.append((cursor, iv_low))
            cursor = max(cursor, iv_high)
            if cursor >= high:
                break
        if cursor < high:
            gaps.append((cursor, high))
        return gaps

    def __repr__(self) -> str:
        inner = ", ".join(f"[{l}, {h})" for l, h in self)
        return f"IntervalSet({inner})"
