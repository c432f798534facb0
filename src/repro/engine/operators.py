"""Physical operators shared by all indexing strategies.

``scan_select`` is the no-index baseline (MonetDB's tight predicate
loop over a column); ``apply_pending`` corrects any strategy's result for updates still
sitting in the column's delta store, so every strategy stays correct
under trickle inserts/deletes without owning merge logic itself.
"""

from __future__ import annotations

import numpy as np

from repro.engine.plan import ColumnWindow
from repro.simtime.charge import CostCharge
from repro.simtime.clock import Clock
from repro.storage.dtypes import Key
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
    view = PendingOverlay(result, inserts, deletes)
    clock.charge(CostCharge.for_pending_merge(len(deletes), view.count))
    return view


class PendingWindow:
    """One column's pending-update consultation for a query window.

    Sequential execution probes each delta store once per query
    (:meth:`PendingUpdates.in_range`); a window probes each store once
    with the probe keys its plan collected
    (:class:`~repro.engine.plan.ColumnWindow`), lows and highs together
    (two vectorized ``searchsorted`` calls a window), and hands each
    query its ready-made slices.  Charges are emitted per query through
    :meth:`apply` and are identical to sequential :func:`apply_pending`
    calls.
    """

    __slots__ = (
        "active",
        "_ins_lo",
        "_ins_hi",
        "_del_lo",
        "_del_hi",
        "_inserts",
        "_deletes",
        "overlaps",
    )

    def __init__(self, window: ColumnWindow) -> None:
        """Probe ``window``'s delta store with its plan's keys."""
        inserts = window.pending.insert_values
        deletes = window.pending.deleted_values
        #: Whether this column has any pending entries to consult.
        self.active = len(inserts) > 0 or len(deletes) > 0
        if not self.active:
            return
        self._inserts = inserts
        self._deletes = deletes
        keys = np.array(window.keys, dtype=inserts.dtype)
        # Plain ints slice faster than numpy scalars, once per read.
        ins = inserts.searchsorted(keys).tolist()
        dels = deletes.searchsorted(keys).tolist()
        for slot in window.tops:
            # A top probed as the largest value; it takes the whole tail.
            ins[2 * slot + 1] = len(inserts)
            dels[2 * slot + 1] = len(deletes)
        self._ins_lo, self._ins_hi = ins[0::2], ins[1::2]
        self._del_lo, self._del_hi = dels[0::2], dels[1::2]
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
        charge the clock; for an ``active`` window only."""
        inserts = self._inserts[self._ins_lo[slot] : self._ins_hi[slot]]
        deletes = self._deletes[self._del_lo[slot] : self._del_hi[slot]]
        if len(inserts) == 0 and len(deletes) == 0:
            return result
        view = PendingOverlay(result, inserts, deletes)
        accountant.charge_pending_merge(len(deletes), view.count)
        return view


def pending_slots(
    windows: list[ColumnWindow], count: int
) -> list[tuple[PendingWindow, int] | None]:
    """Per slot of a ``count``-query window, its pending-update overlay.

    One :class:`PendingWindow` per column of ``windows`` whose delta
    store holds pending entries; a slot gets ``(window, slot within the column)``,
    or ``None`` when no pending entry is in its range -- it then skips
    the merge entirely, like the sequential path's early return.
    """
    slots: list[tuple[PendingWindow, int] | None] = [None] * count
    for window in windows:
        consulted = PendingWindow(window)
        if consulted.active:
            for slot, (i, overlaps) in enumerate(
                zip(window.indices, consulted.overlaps)
            ):
                if overlaps:
                    slots[i] = (consulted, slot)
    return slots
