"""Physical operators shared by all indexing strategies.

``scan_select`` is the no-index baseline (MonetDB's tight predicate
loop over a column); ``project`` materializes qualifying values;
``apply_pending`` corrects any strategy's result for updates still
sitting in the column's delta store, so every strategy stays correct
under trickle inserts/deletes without owning merge logic itself.
"""

from __future__ import annotations

import numpy as np

from repro.simtime.charge import CostCharge
from repro.simtime.clock import Clock
from repro.storage.updates import (
    PendingUpdates,
    cuts_at_keys,
    exact_search_keys,
)
from repro.storage.views import (
    MaterializedResult,
    PendingOverlay,
    PositionsView,
    SelectionResult,
)

#: Largest pending-delete set a :class:`PendingOverlay` scans for, one
#: removal at a time; :func:`multiset_difference` argsorts the result
#: once instead.  Measured crossovers of select + ``values()``: 14
#: removals on a 1,000-row result, 55 on 4,000, ~300 on 2 x 10^6 --
#: under ~1,000 rows the scans lose at most 0.1 ms, above they win up
#: to 10x.
TRICKLE_REMOVALS = 32


def scan_select(
    values: np.ndarray,
    low: float,
    high: float,
    clock: Clock,
) -> PositionsView:
    """Full-column predicate scan; returns qualifying positions."""
    mask = (values >= low) & (values < high)
    positions = np.flatnonzero(mask)
    clock.charge(
        CostCharge(
            elements_scanned=len(values),
            elements_materialized=len(positions),
        )
    )
    return PositionsView(values, positions)


def project(result: SelectionResult, clock: Clock) -> np.ndarray:
    """Materialize a result's values (the query's projection list)."""
    values = result.values()
    clock.charge(CostCharge(elements_materialized=len(values)))
    return values


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


def apply_pending(
    result: SelectionResult,
    pending: PendingUpdates,
    low: float,
    high: float,
    clock: Clock,
) -> SelectionResult:
    """Correct ``result`` for pending inserts/deletes in ``[low, high)``.

    Returns the original result untouched when no pending entries
    overlap the range; otherwise a :class:`PendingOverlay` -- exact
    ``count`` now, pending inserts appended and pending deletes
    subtracted when ``values()`` is first read.
    """
    if not pending.has_pending():
        return result
    inserts = pending.inserts_in_range(low, high)
    deletes = pending.deletes_in_range(low, high)
    if len(inserts) == 0 and len(deletes) == 0:
        return result
    view = _overlay(result, inserts, deletes)
    clock.charge(CostCharge.for_pending_merge(len(deletes), view.count))
    return view


def _overlay(
    result: SelectionResult,
    inserts: np.ndarray,
    deletes: np.ndarray,
) -> PendingOverlay:
    """``result`` seen through its in-range pending entries.

    The one overlay behind both the sequential :func:`apply_pending`
    and the batched :class:`PendingWindow` -- only the charge sink
    differs between the callers.
    """
    if len(deletes) > TRICKLE_REMOVALS:
        # Past a trickle one argsort beats the view's scan per removal,
        # and it needs the values, so this copy is made at select time.
        result = MaterializedResult(
            multiset_difference(result.values(), deletes)
        )
        deletes = deletes[:0]
    return PendingOverlay(result, inserts, deletes)


class PendingWindow:
    """One column's pending-update consultation for a query window.

    Sequential execution probes the delta store four times per query
    (two ``searchsorted`` each for inserts and deletes); a window
    normalises its bounds to exact search keys once, precomputes all
    slice bounds with four vectorized probes and hands each query its
    ready-made slices.  Charges are emitted per query
    through :meth:`apply` and are identical to sequential
    :func:`apply_pending` calls.
    """

    __slots__ = (
        "_pending",
        "_active",
        "_ins_lo",
        "_ins_hi",
        "_del_lo",
        "_del_hi",
        "_inserts",
        "_deletes",
        "_overlaps",
    )

    def __init__(
        self,
        pending: PendingUpdates,
        lows: np.ndarray,
        highs: np.ndarray,
    ) -> None:
        self._pending = pending
        self._active = pending.has_pending()
        if not self._active:
            return
        inserts = pending.insert_values
        deletes = pending.deleted_values
        self._inserts = inserts
        self._deletes = deletes
        # Exact keys, not raw searchsorted: integer stores need int64
        # keys so the window agrees with the sequential path at float
        # bounds beyond 2^53.  Both stores hold the column's dtype, so
        # each bound is normalised once and probed twice.
        low_keys = exact_search_keys(inserts.dtype, np.asarray(lows))
        high_keys = exact_search_keys(inserts.dtype, np.asarray(highs))
        self._ins_lo = cuts_at_keys(inserts, *low_keys)
        self._ins_hi = cuts_at_keys(inserts, *high_keys)
        self._del_lo = cuts_at_keys(deletes, *low_keys)
        self._del_hi = cuts_at_keys(deletes, *high_keys)
        # A NaN bound maps to len(store) ("first element >= NaN"),
        # which is correct as a low cut but would select the whole
        # tail as a high cut; low <= v < high is false for every v
        # when either bound is NaN, so such slots get empty slices.
        nan_slots = np.isnan(np.asarray(lows, dtype=np.float64)) | (
            np.isnan(np.asarray(highs, dtype=np.float64))
        )
        if nan_slots.any():
            self._ins_hi = np.where(nan_slots, self._ins_lo, self._ins_hi)
            self._del_hi = np.where(nan_slots, self._del_lo, self._del_hi)
        self._overlaps = (self._ins_hi > self._ins_lo) | (
            self._del_hi > self._del_lo
        )

    @property
    def active(self) -> bool:
        """Whether this column has any pending entries to consult."""
        return self._active

    def overlapping_slots(self) -> np.ndarray:
        """Boolean mask: which window entries touch a pending entry.

        Entries outside every pending value range skip :meth:`apply`
        entirely, like the sequential path's empty-slice early return.
        """
        return self._overlaps

    def apply(
        self, slot: int, result: SelectionResult, accountant
    ) -> SelectionResult:
        """Correct the ``slot``-th window query's result, charging the
        window accountant as sequential :func:`apply_pending` would
        charge the clock."""
        if not self._active:
            return result
        inserts = self._inserts[self._ins_lo[slot] : self._ins_hi[slot]]
        deletes = self._deletes[self._del_lo[slot] : self._del_hi[slot]]
        if len(inserts) == 0 and len(deletes) == 0:
            return result
        view = _overlay(result, inserts, deletes)
        accountant.charge_pending_merge(len(deletes), view.count)
        return view
