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
    The slice holds values only: a cracked or sorted copy keeps no
    base-table positions (tuple reconstruction is a sideways map's
    job, :mod:`repro.cracking.sideways`).
    """

    __slots__ = ("_array", "start", "end", "count")

    def __init__(self, array: np.ndarray, start: int, end: int) -> None:
        if start < 0 or end < start or end > len(array):
            raise QueryError(
                f"invalid view bounds [{start}, {end}) over {len(array)} rows"
            )
        self._array = array
        self.start = start
        self.end = end
        #: Eager attribute, not a property: `.count` is read on every
        #: query result and the property frame costs more than the
        #: subtraction.
        self.count = end - start

    def values(self) -> np.ndarray:
        return self._array[self.start : self.end]

    def positions(self) -> None:
        return None

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


#: Largest removal set :meth:`PendingOverlay.values` drops by one
#: equality scan per distinct value; past it
#: :func:`multiset_difference` argsorts the result once instead.
#: Measured crossovers of ``values()``: 14 removals on a 1,000-row
#: result, 55 on 4,000, ~300 on 2 x 10^6 -- under ~1,000 rows the scans
#: lose at most 0.1 ms, above they win up to 10x.
TRICKLE_REMOVALS = 32


def multiset_difference(
    values: np.ndarray, removals: np.ndarray
) -> np.ndarray:
    """Remove one occurrence per entry of ``removals`` from ``values``.

    Order of the surviving values is preserved, and for each removal
    value the *earliest* occurrences are dropped.  Removal entries
    with no match are ignored.  Vectorized (ISSUE 4): a stable argsort
    aligns equal values, ``searchsorted`` finds each removal value's
    run, and a difference-array marks the first ``count`` entries of
    every run -- no Python-level loop over the data.
    """
    if len(removals) == 0 or len(values) == 0:
        return values
    order = np.argsort(values, kind="stable")
    values_sorted = values[order]
    unique_removals, removal_counts = np.unique(removals, return_counts=True)
    run_start = np.searchsorted(values_sorted, unique_removals, side="left")
    run_end = np.searchsorted(values_sorted, unique_removals, side="right")
    kill = np.minimum(removal_counts, run_end - run_start)
    # Mark positions [run_start, run_start + kill) in the sorted domain
    # via a +1/-1 difference array; stable argsort makes those the
    # earliest original occurrences of each value.
    bounds = np.zeros(len(values) + 1, dtype=np.int64)
    np.add.at(bounds, run_start, 1)
    np.add.at(bounds, run_start + kill, -1)
    removed_sorted = np.cumsum(bounds[:-1]) > 0
    keep = np.ones(len(values), dtype=bool)
    keep[order[removed_sorted]] = False
    return values[keep]


def _surviving_runs(
    values: np.ndarray, removals: np.ndarray
) -> list[np.ndarray]:
    """:func:`multiset_difference` as the runs of ``values`` between
    the dropped rows -- views, so the caller's one ``np.concatenate``
    is the only copy -- found by one scan per distinct removal while
    those are a trickle."""
    if len(removals) > TRICKLE_REMOVALS or len(values) == 0:
        return [multiset_difference(values, removals)]
    wanted: dict[float, int] = {}
    for removal in removals.tolist():
        wanted[removal] = wanted.get(removal, 0) + 1
    drops: list[int] = []
    for value, count in wanted.items():
        equal = values == value
        if count == 1:
            # The usual count; argmax stops at the first hit where
            # nonzero finishes the scan and builds an array.
            first = int(equal.argmax())
            if equal[first]:
                drops.append(first)
        else:
            drops += equal.nonzero()[0][:count].tolist()
    runs = []
    start = 0
    for drop in sorted(drops):
        runs.append(values[start:drop])
        start = drop + 1
    runs.append(values[start:])
    return runs


class PendingOverlay:
    """A select result seen through its column's pending updates.

    Select time computes only the exact :attr:`count`.  Behind a store
    that verified its deletes (``verified``; every
    :class:`~repro.storage.table.Table`'s does) each in-range delete is
    a distinct base row with a value in the range, hence a row of
    *any* strategy's result for it: the count is base count - deletes
    + inserts, and the result is not read.  :meth:`values` makes the
    corrected copy on first use: the surviving runs of the base values
    and the inserts in one ``np.concatenate``, survivors in base order,
    one occurrence dropped per removal (the earliest).  A standalone
    store's deletes may match nothing -- those are ignored -- so its
    count is only known from that copy, which is then made at once.

    The view holds *values*: the base result, the store's in-range
    insert and delete slices.  Cracking permutes the rows of a
    cut-aligned range and never changes what the range holds, so a
    crack between the select and :meth:`values` leaves the answer's
    multiset intact; the slices stay valid because
    :class:`~repro.storage.updates.PendingUpdates` is copy-on-write.
    """

    __slots__ = ("_base", "_inserts", "_removed", "_values", "count")

    def __init__(
        self,
        base: SelectionResult,
        inserts: np.ndarray,
        deletes: np.ndarray,
        verified: bool,
    ) -> None:
        self._base = base
        self._inserts = inserts
        self._removed = deletes
        self._values: np.ndarray | None = None
        self.count = (
            base.count - len(deletes) + len(inserts)
            if verified or len(deletes) == 0
            else len(self.values())
        )

    def values(self) -> np.ndarray:
        """The corrected values, in the wider of the base's and the
        column's dtype (a narrowed cracker column holds int32 where the
        column, and so a pending insert, is int64)."""
        if self._values is None:
            self._values = np.concatenate(
                _surviving_runs(self._base.values(), self._removed)
                + [self._inserts]
            )
        return self._values

    def positions(self) -> None:
        return None

    def __repr__(self) -> str:
        return f"PendingOverlay(count={self.count})"
