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
from repro.storage.dtypes import Key, largest
from repro.storage.updates import PendingUpdates
from repro.storage.views import (
    PendingOverlay,
    PositionsView,
    SelectionResult,
)


def scan_select(
    values: np.ndarray,
    low: Key,
    high: Key,
    clock: Clock,
) -> PositionsView:
    """Full-column predicate scan; returns qualifying positions.

    ``low``/``high`` are keys in the column's domain: numpy compares a
    Python int with the column exactly, a top included.
    """
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


def apply_pending(
    result: SelectionResult,
    pending: PendingUpdates,
    low: Key,
    high: Key,
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
    inserts, deletes = pending.in_range(low, high)
    if len(inserts) == 0 and len(deletes) == 0:
        return result
    view = PendingOverlay(result, inserts, deletes, pending.verifies_deletes)
    clock.charge(CostCharge.for_pending_merge(len(deletes), view.count))
    return view


class PendingWindow:
    """One column's pending-update consultation for a query window.

    Sequential execution probes each delta store once per query
    (:meth:`PendingUpdates.in_range`); a window probes each store once
    with all its normalised bounds, lows and highs together (two
    vectorized ``searchsorted`` calls a window), and hands each query
    its ready-made slices.  Charges are emitted per query through
    :meth:`apply` and are identical to sequential
    :func:`apply_pending` calls.
    """

    __slots__ = (
        "_verified",
        "active",
        "_ins_lo",
        "_ins_hi",
        "_del_lo",
        "_del_hi",
        "_inserts",
        "_deletes",
        "overlaps",
    )

    def __init__(
        self,
        pending: PendingUpdates,
        bounds: list[tuple[Key, Key] | None],
    ) -> None:
        """``bounds`` are a column window's normalised ranges
        (:attr:`~repro.engine.plan.ColumnWindow.bounds`)."""
        self._verified = pending.verifies_deletes
        #: Whether this column has any pending entries to consult.
        self.active = pending.has_pending()
        if not self.active:
            return
        inserts = pending.insert_values
        deletes = pending.deleted_values
        self._inserts = inserts
        self._deletes = deletes
        # An empty range probes as [0, 0); a top probes as the largest
        # value and then takes the whole tail.
        top = largest(inserts.dtype)
        lows: list[Key] = []
        highs: list[Key] = []
        ends = []
        for slot, pair in enumerate(bounds):
            low, high = (0, 0) if pair is None else pair
            if high > top:
                ends.append(slot)
                high = top
            lows.append(low)
            highs.append(high)
        keys = np.array(lows + highs, dtype=inserts.dtype)
        # Plain ints slice faster than numpy scalars, once per read.
        ins = inserts.searchsorted(keys).tolist()
        dels = deletes.searchsorted(keys).tolist()
        size = len(bounds)
        for slot in ends:
            ins[size + slot] = len(inserts)
            dels[size + slot] = len(deletes)
        self._ins_lo, self._ins_hi = ins[:size], ins[size:]
        self._del_lo, self._del_hi = dels[:size], dels[size:]
        #: Per window entry, whether a pending entry is in its range;
        #: the others skip :meth:`apply`, like the sequential path's
        #: empty-slice early return.
        self.overlaps = [
            a < b or c < d
            for a, b, c, d in zip(
                self._ins_lo, self._ins_hi, self._del_lo, self._del_hi
            )
        ]

    def apply(
        self, slot: int, result: SelectionResult, accountant
    ) -> SelectionResult:
        """Correct the ``slot``-th window query's result, charging the
        window accountant as sequential :func:`apply_pending` would
        charge the clock."""
        if not self.active:
            return result
        inserts = self._inserts[self._ins_lo[slot] : self._ins_hi[slot]]
        deletes = self._deletes[self._del_lo[slot] : self._del_hi[slot]]
        if len(inserts) == 0 and len(deletes) == 0:
            return result
        view = PendingOverlay(result, inserts, deletes, self._verified)
        accountant.charge_pending_merge(len(deletes), view.count)
        return view


def pending_slots(
    catalog, windows, count: int
) -> list[tuple[PendingWindow, int] | None]:
    """Per slot of a ``count``-query window, its pending-update overlay.

    One :class:`PendingWindow` per column of ``windows`` (each a
    :class:`~repro.engine.plan.ColumnWindow`); a slot gets
    ``(window, slot within the column)``, or ``None`` when no pending
    entry is in its range -- it then skips the merge entirely, like
    the sequential path's early return.
    """
    slots: list[tuple[PendingWindow, int] | None] = [None] * count
    for window in windows:
        pending = catalog.table(window.ref.table).updates_for(
            window.ref.column
        )
        consulted = PendingWindow(pending, window.bounds)
        if consulted.active:
            for slot, (i, overlaps) in enumerate(
                zip(window.indices, consulted.overlaps)
            ):
                if overlaps:
                    slots[i] = (consulted, slot)
    return slots
