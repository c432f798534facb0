"""Selection results as views.

MonetDB's select operator returns candidate *views* rather than copied
values, and the paper's offline numbers (10 us per indexed query over
10^8 rows) only make sense under view semantics.  We mirror that: range
selects over sorted or cracked columns return a :class:`RangeView`
(contiguous slice, O(1) to create), while scan selects return a
:class:`PositionsView` (qualifying row ids).  Materialization is an
explicit, separately-charged step.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.errors import QueryError


@runtime_checkable
class SelectionResult(Protocol):
    """Common interface of all select-operator outputs."""

    @property
    def count(self) -> int:
        """Number of qualifying rows."""
        ...

    def values(self) -> np.ndarray:
        """Qualifying values (may copy; prefer :attr:`count` if unused)."""
        ...

    def positions(self) -> np.ndarray | None:
        """Qualifying row ids in the base table, or None if untracked."""
        ...


class RangeView:
    """A contiguous slice of a (cracked or sorted) value array.

    Creating the view is O(1); reading :meth:`values` slices lazily.
    ``rowids`` carries the cracker map (base-table positions aligned
    with the value array) when the index maintains one.
    """

    __slots__ = ("_array", "start", "end", "_rowids", "count")

    def __init__(
        self,
        array: np.ndarray,
        start: int,
        end: int,
        rowids: np.ndarray | None = None,
    ) -> None:
        if start < 0 or end < start or end > len(array):
            raise QueryError(
                f"invalid view bounds [{start}, {end}) over {len(array)} rows"
            )
        self._array = array
        self.start = start
        self.end = end
        self._rowids = rowids
        #: Eager attribute, not a property: `.count` is read on every
        #: query result and the property frame costs more than the
        #: subtraction.
        self.count = end - start

    def values(self) -> np.ndarray:
        return self._array[self.start : self.end]

    def positions(self) -> np.ndarray | None:
        if self._rowids is None:
            return None
        return self._rowids[self.start : self.end]

    def __repr__(self) -> str:
        return f"RangeView([{self.start}, {self.end}), count={self.count})"


class PositionsView:
    """Qualifying row positions over a base array (scan-select output)."""

    __slots__ = ("_array", "_positions", "count")

    def __init__(self, array: np.ndarray, positions: np.ndarray) -> None:
        self._array = array
        self._positions = positions
        self.count = len(positions)

    def values(self) -> np.ndarray:
        return self._array[self._positions]

    def positions(self) -> np.ndarray:
        return self._positions

    def __repr__(self) -> str:
        return f"PositionsView(count={self.count})"


class MaterializedResult:
    """An already-copied result (e.g. merged with pending updates)."""

    __slots__ = ("_values", "_positions", "count")

    def __init__(
        self, values: np.ndarray, positions: np.ndarray | None = None
    ) -> None:
        self._values = values
        self._positions = positions
        self.count = len(values)

    def values(self) -> np.ndarray:
        return self._values

    def positions(self) -> np.ndarray | None:
        return self._positions

    def __repr__(self) -> str:
        return f"MaterializedResult(count={self.count})"


def _tally(items: list[float]) -> dict[float, int]:
    """How often each item occurs, in first-seen order."""
    counts: dict[float, int] = {}
    for item in items:
        counts[item] = counts.get(item, 0) + 1
    return counts


def _earliest_hits(
    values: np.ndarray, wanted: dict[float, int]
) -> tuple[list[int], list[float]]:
    """Indices of the first ``wanted[value]`` occurrences of each
    wanted value in ``values`` (fewer when it occurs less often), and
    the value found at each."""
    spots: list[int] = []
    found: list[float] = []
    if len(values) == 0:
        return spots, found
    for value, count in wanted.items():
        equal = values == value
        if count == 1:
            # The usual count; argmax stops at the first hit where
            # nonzero finishes the scan and builds an array.
            first = int(equal.argmax())
            hits = [first] if equal[first] else []
        else:
            hits = equal.nonzero()[0][:count].tolist()
        spots += hits
        found += [value] * len(hits)
    return spots, found


class PendingOverlay:
    """A select result seen through its column's pending updates.

    Select time computes only the exact :attr:`count` -- base count,
    minus the pending deletes that match a base value, plus the pending
    inserts -- from one scan per distinct deleted value; :meth:`values`
    makes the corrected copy on first use: the surviving runs of the
    base values and the inserts in one ``np.concatenate``, survivors in
    base order, one occurrence dropped per matched removal (the
    earliest, as of the select), unmatched removals ignored.

    What the view answers with is held as *values*: the base result,
    the store's in-range insert slice and the matched removals.
    Cracking permutes the rows of a cut-aligned range and never changes
    what the range holds, so a later crack leaves that multiset intact
    where a row position goes stale.  The hit indices of the select's
    scans are kept as hints only: :meth:`values` uses them if each
    still holds its removal's value and scans again otherwise, so the
    answer never rests on one.  The insert slice stays valid because
    :class:`~repro.storage.updates.PendingUpdates` is copy-on-write.

    One scan per removal only pays for trickle-sized delete sets; the
    caller subtracts larger ones up front (``engine.operators``).
    """

    __slots__ = (
        "_base", "_inserts", "_spots", "_removed", "_values", "count"
    )

    def __init__(
        self, base: SelectionResult, inserts: np.ndarray, deletes: np.ndarray
    ) -> None:
        self._base = base
        self._inserts = inserts
        self._values: np.ndarray | None = None
        #: The removals that match a base value, one entry per dropped
        #: occurrence, and where the select saw each (a hint).
        self._spots, self._removed = (
            _earliest_hits(base.values(), _tally(deletes.tolist()))
            if len(deletes)
            else ([], [])  # a scan's values() is a gather: not for nothing
        )
        self.count = base.count - len(self._removed) + len(inserts)

    def values(self) -> np.ndarray:
        """The corrected values, in the wider of the base's and the
        column's dtype (a narrowed cracker column holds int32 where the
        column, and so a pending insert, is int64)."""
        if self._values is None:
            values = self._base.values()
            spots = self._spots
            for spot, removal in zip(spots, self._removed):
                if values[spot] != removal:
                    # A crack has permuted the range since the select.
                    spots, _ = _earliest_hits(values, _tally(self._removed))
                    break
            parts = []
            start = 0
            for drop in sorted(spots):
                parts.append(values[start:drop])
                start = drop + 1
            parts.append(values[start:])
            parts.append(self._inserts)
            self._values = np.concatenate(parts)
        return self._values

    def positions(self) -> None:
        return None

    def __repr__(self) -> str:
        return f"PendingOverlay(count={self.count})"


def concat_results(
    first: SelectionResult, second: SelectionResult
) -> MaterializedResult:
    """Concatenate two selection results into one materialized result.

    Positions are preserved only if both inputs carry them.
    """
    values = np.concatenate([first.values(), second.values()])
    pos_a = first.positions()
    pos_b = second.positions()
    positions = None
    if pos_a is not None and pos_b is not None:
        positions = np.concatenate([pos_a, pos_b])
    return MaterializedResult(values, positions)
