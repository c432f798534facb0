"""Cost charges: machine-independent records of work performed.

Every storage / index / operator primitive in this library reports the
work it did as a :class:`CostCharge` instead of timing itself.  A charge
counts *logical* operations -- elements scanned, elements moved by a
crack, comparison steps of a binary search, and so on.  Charges are then
priced by a :class:`repro.simtime.model.CostModel` (virtual time,
calibrated to the paper's testbed) or simply ignored by the wall clock
(real time flows by itself).

This is the seam that makes the reproduction honest: the same algorithm
run produces both real measurements (``perfbench``'s stopwatch) and a
projection onto the paper's 10^8-row, 2011-i7 scale.

Charges sit on the refinement hot path (one or more per crack), so the
arithmetic below is hand-unrolled rather than driven by
``dataclasses.fields`` reflection -- the reflective version dominated
kernel profiles once pieces became cache-sized.
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

    def __add__(self, other: "CostCharge") -> "CostCharge":
        if not isinstance(other, CostCharge):
            return NotImplemented
        return CostCharge(
            self.elements_scanned + other.elements_scanned,
            self.elements_cracked + other.elements_cracked,
            self.elements_sorted + other.elements_sorted,
            self.elements_merged + other.elements_merged,
            self.elements_materialized + other.elements_materialized,
            self.comparisons + other.comparisons,
            self.seeks + other.seeks,
            self.pieces_touched + other.pieces_touched,
            self.queries + other.queries,
            self.cracks + other.cracks,
        )

    def __iadd__(self, other: "CostCharge") -> "CostCharge":
        if not isinstance(other, CostCharge):
            return NotImplemented
        # Zero-skip: accumulation runs once per clock charge and hot
        # charges carry two or three non-zero fields.
        if other.elements_scanned:
            self.elements_scanned += other.elements_scanned
        if other.elements_cracked:
            self.elements_cracked += other.elements_cracked
        if other.elements_sorted:
            self.elements_sorted += other.elements_sorted
        if other.elements_merged:
            self.elements_merged += other.elements_merged
        if other.elements_materialized:
            self.elements_materialized += other.elements_materialized
        if other.comparisons:
            self.comparisons += other.comparisons
        if other.seeks:
            self.seeks += other.seeks
        if other.pieces_touched:
            self.pieces_touched += other.pieces_touched
        if other.queries:
            self.queries += other.queries
        if other.cracks:
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

    @classmethod
    def for_scan(cls, n: int, materialized: int = 0) -> "CostCharge":
        """Charge for a sequential scan of ``n`` elements."""
        return cls(elements_scanned=n, elements_materialized=materialized)

    @classmethod
    def for_crack(cls, piece_size: int, pieces: int = 1) -> "CostCharge":
        """Charge for crack-partitioning ``piece_size`` elements."""
        return cls(
            elements_cracked=piece_size, pieces_touched=pieces, cracks=1
        )

    @classmethod
    def for_sort(cls, n: int) -> "CostCharge":
        """Charge for fully sorting ``n`` elements."""
        return cls(elements_sorted=n)

    @classmethod
    def for_binary_search(cls, n: int) -> "CostCharge":
        """Charge for a binary search over ``n`` ordered elements."""
        steps = max(1, int(n).bit_length())
        return cls(comparisons=steps, seeks=1)
