"""Sideways cracking: multi-attribute queries over cracked columns.

"Self-organizing tuple reconstruction in column-stores" (Idreos et
al., SIGMOD 2009 -- the paper's [13]) observes that cracking one
column destroys positional alignment with the others, making
``select A, project B`` expensive.  Sideways cracking maintains
*cracker maps*: per (selection, projection) attribute pair, a pair of
physically aligned arrays that crack together, so a range select on A
yields B's qualifying values as a contiguous view.

:class:`SidewaysCrackerIndex` implements the map-pair core: the head
(selection) column drags its tail (projection) column through every
crack.  Maps are created lazily per projection attribute and refined
independently -- partial sideways cracking.

A map cracks with its own aligned partition
(:func:`_partition_aligned`): the crack kernels of
:mod:`repro.cracking.engine` move values only.
"""

from __future__ import annotations

import numpy as np

from repro.cracking.piecemap import PieceMap
from repro.errors import CrackerError, QueryError
from repro.simtime.charge import CostCharge
from repro.simtime.clock import Clock, SimClock
from repro.storage.column import Column
from repro.storage.dtypes import Key, largest, normalise_range
from repro.storage.table import Table
from repro.storage.views import RangeView


def _partition_aligned(
    head: np.ndarray,
    tail: np.ndarray,
    start: int,
    end: int,
    pivots: tuple[Key, ...],
) -> list[int]:
    """Partition ``head[start:end]`` around ascending ``pivots`` with
    ``tail[start:end]`` moved alike; returns, per pivot, the absolute
    position of the first head value ``>= pivot``.

    Counts first, then selects at each split: one ``argpartition`` of
    the remainder, applied to head and tail together, so the pair stays
    exactly aligned.  Everything left of a split is below the next
    pivot too, so each later pivot is counted in the remainder only.
    """
    view = head[start:end]
    tail_view = tail[start:end]
    size = end - start
    splits = []
    done = 0
    for pivot in pivots:
        rest = view[done:]
        n = done + int(np.count_nonzero(rest < pivot))
        if done < n < size:
            order = np.argpartition(rest, n - done - 1)
            rest[:] = rest[order]
            tail_rest = tail_view[done:]
            tail_rest[:] = tail_rest[order]
        splits.append(start + n)
        done = n
    return splits


class _MapPair:
    """One cracker map: head values aligned with one tail column."""

    __slots__ = ("head", "tail", "pieces", "largest")

    def __init__(self, head: np.ndarray, tail: np.ndarray) -> None:
        self.head = head
        self.tail = tail
        self.pieces = PieceMap(len(head), dtype=head.dtype)
        #: Bounds above this run to the end of the map.
        self.largest = largest(head.dtype)

    def ensure_cut(self, value: Key) -> tuple[int, CostCharge]:
        _, start, end, at_pivot = self.pieces.locate(value)
        if at_pivot:
            charge = CostCharge.for_binary_search(self.pieces.piece_count)
            return start, charge
        (position,) = _partition_aligned(
            self.head, self.tail, start, end, (value,)
        )
        self.pieces.add_crack(value, position)
        if end == start:
            return position, CostCharge(cracks=1)
        return position, CostCharge.for_crack(end - start)

    def select(self, low: Key, high: Key) -> tuple[int, int, CostCharge]:
        """Cut positions of a normalised range (``low < high``)."""
        if high > self.largest:
            pos_low, charge = self.ensure_cut(low)
            return pos_low, len(self.head), charge
        low_loc, high_loc = self.pieces.locate_pair(low, high)
        low_index, start, end, low_pivot = low_loc
        if (
            low_index == high_loc[0]
            and not (low_pivot or high_loc[3])
            and end > start
        ):
            pos_low, pos_high = _partition_aligned(
                self.head, self.tail, start, end, (low, high)
            )
            self.pieces.add_crack(low, pos_low)
            self.pieces.add_crack(high, pos_high)
            charge = CostCharge(
                elements_cracked=end - start, pieces_touched=1, cracks=2
            )
            return pos_low, pos_high, charge
        pos_low, charge_low = self.ensure_cut(low)
        pos_high, charge_high = self.ensure_cut(high)
        return pos_low, pos_high, charge_low + charge_high


class SidewaysCrackerIndex:
    """Cracker maps for ``select head, project tail`` queries.

    Args:
        table: the table holding head and tail columns.
        head: the selection attribute (cracked on its values).
        clock: shared time source; map creation and cracks are charged.
    """

    def __init__(
        self, table: Table, head: str, clock: Clock | None = None
    ) -> None:
        self.table = table
        self.head_column: Column = table.column(head)
        self.head_name = head
        self.clock: Clock = clock if clock is not None else SimClock()
        self._maps: dict[str, _MapPair] = {}

    def map_for(self, tail: str) -> _MapPair:
        """Get or lazily build the cracker map for ``tail``.

        Creation copies both columns (charged as materialization),
        exactly like MonetDB's first-touch map creation.

        Raises:
            CrackerError: if ``tail`` is the head attribute itself
                (use a plain :class:`CrackerIndex` for that).
        """
        if tail == self.head_name:
            raise CrackerError(
                "sideways maps pair the head with a *different* tail; "
                f"got {tail!r} for head {self.head_name!r}"
            )
        pair = self._maps.get(tail)
        if pair is None:
            tail_column = self.table.column(tail)
            pair = _MapPair(
                self.head_column.copy_values(),
                tail_column.copy_values(),
            )
            self._maps[tail] = pair
            self.clock.charge(
                CostCharge(
                    elements_materialized=2 * self.head_column.row_count
                )
            )
        return pair

    def _select(
        self, low: object, high: object, tail: str
    ) -> tuple[_MapPair, int, int]:
        """The ``tail`` map and the cut positions of ``low <= head <
        high``, its bounds normalised into the head's domain first.

        Raises:
            QueryError: if ``low > high``.
        """
        if low > high:  # type: ignore[operator]
            raise QueryError(f"range inverted: low={low} > high={high}")
        pair = self.map_for(tail)
        bounds = normalise_range(pair.head.dtype, low, high)
        if bounds is None:
            return pair, 0, 0
        pos_low, pos_high, charge = pair.select(*bounds)
        self.clock.charge(charge)
        return pair, pos_low, pos_high

    def select_project(
        self, low: object, high: object, tail: str
    ) -> RangeView:
        """``SELECT tail FROM t WHERE low <= head < high``.

        Returns a contiguous view over the tail values whose head
        values qualify -- no positional join needed.

        Raises:
            QueryError: if ``low > high``.
        """
        pair, pos_low, pos_high = self._select(low, high, tail)
        return RangeView(pair.tail, pos_low, pos_high)

    def check_invariants(self) -> None:
        """Verify head/tail alignment on every map (O(n) per map).

        Raises:
            CrackerError: on any violation.
        """
        base_head = self.head_column.values
        order = np.argsort(base_head, kind="stable")
        sorted_head = base_head[order]
        for tail_name, pair in self._maps.items():
            pair.pieces.check_invariants()
            if not np.array_equal(
                np.sort(pair.head), sorted_head
            ):
                raise CrackerError(
                    f"map {tail_name!r}: head values diverged from the "
                    "base column"
                )
            # Every (head, tail) pair must exist in the base table.
            base_tail = self.table.column(tail_name).values
            expected = {}
            for h, t in zip(base_head.tolist(), base_tail.tolist()):
                expected[(h, t)] = expected.get((h, t), 0) + 1
            for h, t in zip(pair.head.tolist(), pair.tail.tolist()):
                count = expected.get((h, t), 0)
                if count == 0:
                    raise CrackerError(
                        f"map {tail_name!r}: pair ({h}, {t}) does not "
                        "exist in the base table"
                    )
                expected[(h, t)] = count - 1

    def __repr__(self) -> str:
        return (
            f"SidewaysCrackerIndex(head={self.head_name!r}, "
            f"maps={sorted(self._maps)})"
        )
