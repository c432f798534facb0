"""Update merging for cracked columns.

Following "Updating a Cracked Database" (the paper's [11]), pending
inserts and deletes stay in the column's delta store until a query
touches their value range; the touched sub-set is then merged into the
cracker column piece by piece, keeping every piece invariant intact.

:class:`MaintainedCrackerIndex` wraps the merge into the select path so
callers always see up-to-date results.
"""

from __future__ import annotations

import numpy as np

from repro.cracking.index import CrackerIndex
from repro.cracking.piece import CrackOrigin
from repro.simtime.charge import CostCharge
from repro.storage.dtypes import Key
from repro.storage.updates import PendingUpdates
from repro.storage.views import RangeView


def merge_inserts(index: CrackerIndex, values: np.ndarray) -> int:
    """Physically insert ``values`` into the cracker column.

    Each value lands at the end of the piece owning its value range
    (pieces are unordered internally, so any in-piece slot is valid).
    Cuts shift by the per-piece insertion counts.  Returns the number
    of rows inserted.
    """
    index.ensure_values_fit(np.asarray(values))
    values = np.sort(np.asarray(values, dtype=index.values.dtype))
    if len(values) == 0:
        return 0
    pieces = index.piece_map
    pivots = np.asarray(pieces.pivots(), dtype=pieces.dtype)
    destinations = np.searchsorted(pivots, values, side="right")
    counts = np.bincount(destinations, minlength=pieces.piece_count)

    segments: list[np.ndarray] = []
    cursor = 0
    old = index.values
    for piece_index in range(pieces.piece_count):
        piece = pieces.piece_at_index(piece_index)
        segments.append(old[piece.start : piece.end])
        take = int(counts[piece_index])
        if take:
            segments.append(values[cursor : cursor + take])
            cursor += take
    merged = np.concatenate(segments)
    index._array = merged  # noqa: SLF001 - deliberate kernel-internal move
    pieces.apply_deltas([int(c) for c in counts])
    index.clock.charge(
        CostCharge(
            elements_merged=len(merged),
            pieces_touched=int(np.count_nonzero(counts)),
        )
    )
    index.tape.record(CrackOrigin.MERGE)
    return len(values)


def merge_deletes(index: CrackerIndex, values: np.ndarray) -> int:
    """Physically remove one occurrence per value from the index.

    Values are matched inside the piece owning their range; missing
    values are ignored (they may have been superseded).  Returns the
    number of rows actually removed.
    """
    # Out-of-range targets must not wrap into deletable in-range values
    # on a narrowed column; widening first keeps the match exact.
    index.ensure_values_fit(np.asarray(values))
    values = np.sort(np.asarray(values, dtype=index.values.dtype))
    if len(values) == 0:
        return 0
    pieces = index.piece_map
    pivots = np.asarray(pieces.pivots(), dtype=pieces.dtype)
    destinations = np.searchsorted(pivots, values, side="right")

    segments: list[np.ndarray] = []
    deltas = [0] * pieces.piece_count
    removed_total = 0
    old = index.values
    for piece_index in range(pieces.piece_count):
        piece = pieces.piece_at_index(piece_index)
        chunk = old[piece.start : piece.end]
        targets = values[destinations == piece_index]
        if len(targets) == 0:
            segments.append(chunk)
            continue
        keep = np.ones(len(chunk), dtype=bool)
        for value, multiplicity in zip(
            *np.unique(targets, return_counts=True)
        ):
            hits = np.flatnonzero((chunk == value) & keep)
            for hit in hits[: int(multiplicity)]:
                keep[hit] = False
        removed = int(np.count_nonzero(~keep))
        removed_total += removed
        deltas[piece_index] = -removed
        segments.append(chunk[keep])
    merged = np.concatenate(segments) if segments else old[:0]
    index._array = merged  # noqa: SLF001 - deliberate kernel-internal move
    pieces.apply_deltas(deltas)
    index.clock.charge(
        CostCharge(
            elements_merged=len(old),
            pieces_touched=sum(1 for d in deltas if d),
        )
    )
    index.tape.record(CrackOrigin.MERGE)
    return removed_total


class MaintainedCrackerIndex(CrackerIndex):
    """A cracker index that ripples pending updates in on demand.

    Args:
        column: base column.
        pending: the column's delta store; consulted on every select.
        **kwargs: forwarded to :class:`CrackerIndex`.
    """

    def __init__(self, column, pending: PendingUpdates, **kwargs) -> None:
        super().__init__(column, **kwargs)
        self._pending = pending

    def select_keys(self, low: Key, high: Key) -> RangeView:
        """Merge pending updates overlapping the range, then select."""
        inserts = self._pending.take_inserts_in_range(low, high)
        if len(inserts):
            merge_inserts(self, inserts)
        deletes = self._pending.take_deletes_in_range(low, high)
        if len(deletes):
            merge_deletes(self, deletes)
        return super().select_keys(low, high)
