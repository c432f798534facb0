"""Cost charges: machine-independent records of work performed.

A :class:`CostCharge` counts *logical* operations -- elements scanned,
elements moved by a crack, comparison steps of a binary search, and so
on.  Every clock keeps one as its running total
(:attr:`~repro.simtime.clock.Clock.total_charge`): storage, index and
operator primitives report each event through the clock's named event
methods, which add the event's counters here and its price to the
clock's time.  ``Clock.charge`` takes a whole record, for the rare
event shape without a method of its own.

This is the seam that makes the reproduction honest: the same algorithm
run produces both real measurements (``perfbench``'s stopwatch) and a
projection onto the paper's 10^8-row, 2011-i7 scale.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(slots=True)
class CostCharge:
    """Logical work counters for one operation (or an aggregate of many).

    Attributes:
        elements_scanned: elements read sequentially (full/partial scans).
        elements_cracked: elements read+written by crack partitioning.
        elements_sorted: elements fully sorted (priced N*log2(N)).
        elements_merged: elements moved by merge steps (update merging).
        elements_materialized: result elements copied out (not views).
        comparisons: individual comparison steps (binary search, piece
            map navigation).
        seeks: random accesses / piece-boundary lookups.
        pieces_touched: how many cracker pieces the operation visited.
        queries: number of user queries this charge covers (bookkeeping).
        cracks: number of crack actions performed (bookkeeping).
    """

    elements_scanned: int = 0
    elements_cracked: int = 0
    elements_sorted: int = 0
    elements_merged: int = 0
    elements_materialized: int = 0
    comparisons: int = 0
    seeks: int = 0
    pieces_touched: int = 0
    queries: int = 0
    cracks: int = 0

    def __iadd__(self, other: "CostCharge") -> "CostCharge":
        if not isinstance(other, CostCharge):
            return NotImplemented
        self.elements_scanned += other.elements_scanned
        self.elements_cracked += other.elements_cracked
        self.elements_sorted += other.elements_sorted
        self.elements_merged += other.elements_merged
        self.elements_materialized += other.elements_materialized
        self.comparisons += other.comparisons
        self.seeks += other.seeks
        self.pieces_touched += other.pieces_touched
        self.queries += other.queries
        self.cracks += other.cracks
        return self

    def as_dict(self) -> dict[str, int]:
        """Field-name to counter mapping (snapshot serialization)."""
        return {
            field.name: getattr(self, field.name) for field in fields(self)
        }

    @classmethod
    def from_dict(cls, state: dict) -> "CostCharge":
        """Rebuild a charge from :meth:`as_dict` output.

        Raises:
            TypeError: on a key that names no counter.
        """
        return cls(**{k: int(v) for k, v in state.items()})
