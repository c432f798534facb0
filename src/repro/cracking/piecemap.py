"""The piece map: ordered crack boundaries of one cracked column.

MonetDB's cracker index keeps an AVL tree mapping pivot values to the
position of the first element ``>= pivot``.  Because the cracked column
is range-partitioned, pivot order and position order coincide, so two
parallel sorted sequences with binary search give the same O(log k)
navigation with much better constants.

Representation: the pivots and the cuts are two plain Python **lists**
of Python scalars, navigated by :func:`bisect.bisect_right` and grown
by ``list.insert``.  Every crack makes one lookup (:meth:`locate`) and
one insert (:meth:`add_crack_at`), and on lists both stay in Python
objects: no numpy scalar is boxed or unboxed on the way.  The bulk
operations (:meth:`locate_many`, :meth:`insert_cracks_bulk`,
:meth:`apply_deltas`, :meth:`from_state`) convert to numpy arrays at
their boundary; they run once per window pass, update merge or
restore, not once per crack.
A piece is its value range and its cuts and nothing else: a crack
keeps no per-piece flag or statistic, because nothing reads one.

:meth:`locate` answers the piece index, bounds and whether the value is
already a pivot from one binary search; a range select asks for both
of its bounds at once (:meth:`locate_pair`).

Beside the two lists the map keeps :attr:`PieceMap.cut_of`, a dict
from each pivot to its cut position: the one pivot -> position lookup
of the engine.  A select whose bounds are both cuts (the converged
select), a window's fresh bounds and a served lane's replays all read
their positions there, with no binary search.

Invariants (checked by :meth:`PieceMap.check_invariants` and the
property tests):

* ``pivots`` is strictly increasing (so none of them is NaN);
* ``cuts`` is non-decreasing, each within ``[0, n]``;
* ``cut_of == dict(zip(pivots, cuts))``;
* piece ``i`` spans positions ``[cuts[i-1], cuts[i])`` (sentinels 0 and
  ``n``) and values ``[pivots[i-1], pivots[i])`` (sentinels -inf/+inf).

A pivot is a value of the column's dtype, held as the Python scalar of
that value (an ``int`` for an integer dtype, a ``float`` for float64)
and compared exactly: an int64 pivot beyond 2^53 is the integer it was
asked for, and a float bound on an integer map is compared with the
integers as it is, not rounded first.  The pivots are range bounds the
session normalised into the column's domain
(:func:`repro.storage.dtypes.normalise_range`); the top of an integer
dtype (``max + 1``, the end of the column) is never a pivot.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterator

import numpy as np

from repro.errors import CrackerError
from repro.cracking.piece import Piece
from repro.storage.dtypes import Key


class PieceMap:
    """Crack boundaries of a column of ``n`` rows."""

    __slots__ = (
        "_n",
        "_pivots",
        "_cuts",
        "_dtype",
        "_scalar",
        "_lowest",
        "_highest",
        "version",
        "cut_of",
    )

    def __init__(
        self,
        n: int,
        dtype: np.dtype = np.dtype(np.float64),
    ) -> None:
        if n < 0:
            raise CrackerError(f"row count must be >= 0, got {n}")
        self._n = n
        self._pivots: list[Key] = []
        self._cuts: list[int] = []
        self._dtype = dtype = np.dtype(dtype)
        # A pivot is ``_scalar(pivot)`` in ``[_lowest, _highest]``.
        if dtype.kind == "f":
            self._scalar = float
            self._lowest, self._highest = -math.inf, math.inf
        else:
            limits = np.iinfo(dtype)
            self._scalar = int
            self._lowest, self._highest = int(limits.min), int(limits.max)
        #: Monotonic mutation counter (bumped by every structural
        #: change); lets callers cache derived views of the map.
        self.version = 0
        #: Pivot -> cut position of every crack.  Mutated in place
        #: only: replays hold a reference to it.
        self.cut_of: dict[Key, int] = {}

    @classmethod
    def from_state(
        cls,
        n: int,
        pivots: np.ndarray,
        cuts: np.ndarray,
        dtype: np.dtype = np.dtype(np.float64),
    ) -> "PieceMap":
        """Rebuild a piece map from exported compact arrays (snapshots).

        ``pivots``/``cuts`` are the ``k`` crack boundaries, exactly as
        :meth:`pivots`/:meth:`cuts` export them, with ``pivots`` in the
        map's ``dtype``.  The version counter restarts at 0 (it orders
        mutations within one process lifetime only).

        Raises:
            CrackerError: when the arrays violate the map invariants or
                the pivots are in another dtype.
        """
        cuts = np.asarray(cuts, dtype=np.int64)
        if len(cuts) != len(pivots):
            raise CrackerError(
                f"piece-map state misaligned: {len(pivots)} pivots, "
                f"{len(cuts)} cuts"
            )
        piece_map = cls(n, dtype=dtype)
        if pivots.dtype != piece_map._dtype:
            raise CrackerError(f"pivots are {pivots.dtype}, not {dtype}")
        piece_map._pivots = pivots.tolist()
        piece_map._cuts = cuts.tolist()
        piece_map.cut_of.update(zip(piece_map._pivots, piece_map._cuts))
        piece_map.check_invariants()
        return piece_map

    def copy(self) -> "PieceMap":
        """An independent map with the same pieces (version 0)."""
        twin = PieceMap(self._n, dtype=self._dtype)
        twin._pivots = self._pivots.copy()
        twin._cuts = self._cuts.copy()
        twin.cut_of.update(self.cut_of)
        return twin

    # -- inspection ----------------------------------------------------

    @property
    def row_count(self) -> int:
        return self._n

    @property
    def piece_count(self) -> int:
        return len(self._pivots) + 1

    @property
    def crack_count(self) -> int:
        return len(self._pivots)

    @property
    def dtype(self) -> np.dtype:
        """The dtype whose values the pivots are."""
        return self._dtype

    def pivots(self) -> list[Key]:
        """The pivot values, in increasing order (copy)."""
        return self._pivots.copy()

    def cuts(self) -> list[int]:
        """The cut positions aligned with :meth:`pivots` (copy)."""
        return self._cuts.copy()

    def piece_at_index(self, index: int) -> Piece:
        """The ``index``-th piece, in position/value order.

        Raises:
            CrackerError: if ``index`` is out of range.
        """
        k = len(self._pivots)
        if index < 0 or index > k:
            raise CrackerError(
                f"piece index {index} out of range "
                f"[0, {self.piece_count})"
            )
        start = self._cuts[index - 1] if index > 0 else 0
        end = self._cuts[index] if index < k else self._n
        low = self._pivots[index - 1] if index > 0 else -math.inf
        high = self._pivots[index] if index < k else math.inf
        return Piece(start, end, low, high)

    def locate(self, value: Key) -> tuple[int, int, int, bool]:
        """One-binary-search lookup of the piece containing ``value``.

        Returns ``(piece_index, start, end, at_pivot)`` --
        everything a crack needs, without constructing a
        :class:`Piece` or re-searching for the pivot.  ``at_pivot`` is
        True when ``value`` is already a crack boundary; the piece
        returned is then the one *at or right of* the pivot, whose
        ``start`` is exactly the pivot's cut position.
        """
        pivots = self._pivots
        cuts = self._cuts
        i = bisect_right(pivots, value)
        return (
            i,
            cuts[i - 1] if i else 0,
            cuts[i] if i < len(cuts) else self._n,
            i > 0 and pivots[i - 1] == value,
        )

    def locate_pair(
        self, low: Key, high: Key
    ) -> tuple[tuple[int, int, int, bool], tuple[int, int, int, bool]]:
        """``(locate(low), locate(high))`` -- both bounds of a range
        select, in one call."""
        pivots = self._pivots
        cuts = self._cuts
        k = len(cuts)
        n = self._n
        i = bisect_right(pivots, low)
        j = bisect_right(pivots, high)
        return (
            (
                i,
                cuts[i - 1] if i else 0,
                cuts[i] if i < k else n,
                i > 0 and pivots[i - 1] == low,
            ),
            (
                j,
                cuts[j - 1] if j else 0,
                cuts[j] if j < k else n,
                j > 0 and pivots[j - 1] == high,
            ),
        )

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The pivots (in the map's dtype) and cuts as numpy arrays:
        the bulk operations' boundary."""
        return (
            np.array(self._pivots, dtype=self._dtype),
            np.array(self._cuts, dtype=np.int64),
        )

    def locate_many(
        self, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`locate` for many values at once.

        Returns ``(piece_indices, starts, ends, at_pivot)``
        arrays aligned with ``values`` -- one ``searchsorted`` over
        the pivots instead of one binary search per value.
        ``starts`` is each containing piece's start position (for
        ``at_pivot`` entries that is exactly the pivot's cut position,
        as in :meth:`locate`).
        """
        k = len(self._pivots)
        pivots, cuts = self._arrays()
        indices = pivots.searchsorted(values, side="right")
        if k:
            left = np.maximum(indices - 1, 0)
            at_pivot = (indices > 0) & (pivots[left] == values)
            starts = np.where(indices > 0, cuts[left], 0)
            ends = np.where(
                indices < k, cuts[np.minimum(indices, k - 1)], self._n
            )
        else:
            at_pivot = np.zeros(len(values), dtype=bool)
            starts = np.zeros(len(values), dtype=np.int64)
            ends = np.full(len(values), self._n, dtype=np.int64)
        return indices, starts, ends, at_pivot

    def insert_cracks_bulk(
        self, pivots: np.ndarray, positions: np.ndarray
    ) -> None:
        """Record many cracks in one vectorized splice.

        ``pivots`` must be strictly increasing, none of them already
        recorded, with ``positions`` aligned, exactly as repeated
        :meth:`add_crack` calls would arrange.  One ``np.insert`` per
        sequence replaces per-crack binary searches and inserts --
        the piece-map half of a batched physical pass.

        Raises:
            CrackerError: if the splice would violate the piece-map
                invariants.
        """
        if len(pivots) == 0:
            return
        pivots = np.asarray(pivots, dtype=self._dtype)
        positions = np.asarray(positions, dtype=np.int64)
        old_pivots, old_cuts = self._arrays()
        slots = old_pivots.searchsorted(pivots, side="left")
        new_pivots = np.insert(old_pivots, slots, pivots)
        new_cuts = np.insert(old_cuts, slots, positions)
        # Not ``any(>=)``: NaN compares false both ways, and a lone NaN
        # has no neighbour to compare with.
        if (
            np.isnan(pivots).any()
            or not (new_pivots[:-1] < new_pivots[1:]).all()
        ):
            raise CrackerError(
                "bulk crack insert breaks pivot ordering"
            )
        if np.any(new_cuts[:-1] > new_cuts[1:]) or (
            new_cuts[0] < 0 or new_cuts[-1] > self._n
        ):
            raise CrackerError(
                "bulk crack insert breaks cut ordering"
            )
        self._pivots = new_pivots.tolist()
        self._cuts = new_cuts.tolist()
        self.cut_of.update(zip(pivots.tolist(), positions.tolist()))
        self.version += 1

    def piece_index_for_value(self, value: Key) -> int:
        """Index of the piece whose value interval contains ``value``."""
        return bisect_right(self._pivots, value)

    def piece_for_value(self, value: Key) -> Piece:
        """The piece whose value interval contains ``value``."""
        return self.piece_at_index(self.piece_index_for_value(value))

    def has_pivot(self, value: Key) -> bool:
        """Whether ``value`` is already a crack boundary."""
        return self.locate(value)[3]

    def pieces(self) -> Iterator[Piece]:
        """All pieces in order."""
        for i in range(self.piece_count):
            yield self.piece_at_index(i)

    def _sizes(self) -> list[int]:
        """Piece sizes, in order."""
        bounds = [0, *self._cuts, self._n]
        return [end - start for start, end in zip(bounds, bounds[1:])]

    def average_piece_size(self) -> float:
        return self._n / self.piece_count if self.piece_count else 0.0

    def largest_piece(self) -> Piece:
        """The first biggest piece."""
        sizes = self._sizes()
        return self.piece_at_index(sizes.index(max(sizes)))

    # -- mutation ------------------------------------------------------

    def add_crack(self, pivot: Key, position: int) -> None:
        """Record that the column was cracked at ``pivot``/``position``.

        Splits the containing piece in two.

        Raises:
            CrackerError: if the pivot already exists or the position
                violates the piece-ordering invariants.
        """
        i = bisect_right(self._pivots, pivot)
        if i and self._pivots[i - 1] == pivot:
            raise CrackerError(f"pivot {pivot!r} already recorded")
        self.add_crack_at(i, pivot, position)

    def add_crack_at(self, i: int, pivot: Key, position: int) -> None:
        """Record a crack whose insertion slot ``i`` is already known.

        The fast path for callers that just called :meth:`locate` (the
        piece index of a non-pivot value *is* its insertion slot),
        skipping the second binary search of :meth:`add_crack`.

        Raises:
            CrackerError: if the pivot is not a value of the map's
                dtype (a fraction on an integer map, NaN, a value
                outside an integer dtype's range), or it or the
                position violates the piece-ordering invariants; the
                map is then unchanged.
        """
        pivots = self._pivots
        cuts = self._cuts
        k = len(pivots)
        try:
            key = self._scalar(pivot)
        except (ValueError, OverflowError, TypeError):
            key = None
        if (
            key is None
            or key != pivot
            or not self._lowest <= key <= self._highest
            or (i > 0 and pivots[i - 1] >= key)
            or (i < k and key >= pivots[i])
        ):
            raise CrackerError(
                f"pivot {pivot!r} out of order for insertion slot {i}"
            )
        left_bound = cuts[i - 1] if i > 0 else 0
        right_bound = cuts[i] if i < k else self._n
        if not left_bound <= position <= right_bound:
            raise CrackerError(
                f"cut position {position} for pivot {pivot!r} outside "
                f"containing piece [{left_bound}, {right_bound}]"
            )
        pivots.insert(i, key)
        cuts.insert(i, position)
        self.cut_of[key] = position
        self.version += 1

    def apply_deltas(self, deltas: list[int]) -> None:
        """Grow/shrink each piece by ``deltas[i]`` rows, shifting cuts.

        Used by update merging: after physically inserting (positive
        delta) or deleting (negative) rows piece by piece, every cut
        right of a changed piece moves by the cumulative delta.

        Raises:
            CrackerError: if ``deltas`` has the wrong length or a piece
                would shrink below zero rows.
        """
        if len(deltas) != self.piece_count:
            raise CrackerError(
                f"{len(deltas)} deltas for {self.piece_count} pieces"
            )
        delta_arr = np.asarray(deltas, dtype=np.int64)
        sizes = np.array(self._sizes(), dtype=np.int64)
        shrunk = sizes + delta_arr < 0
        if np.any(shrunk):
            index = int(np.argmax(shrunk))
            raise CrackerError(
                f"delta {deltas[index]} would shrink a "
                f"{int(sizes[index])}-row piece below zero"
            )
        shifts = np.cumsum(delta_arr)
        k = len(self._cuts)
        if k:
            self._cuts = (
                np.array(self._cuts, dtype=np.int64) + shifts[:k]
            ).tolist()
            cut_of = self.cut_of
            cut_of.clear()
            cut_of.update(zip(self._pivots, self._cuts))
        self._n += int(shifts[-1])
        self.version += 1

    # -- validation ----------------------------------------------------

    def check_invariants(self) -> None:
        """Validate internal invariants (used by tests and debugging).

        Raises:
            CrackerError: on any violation.
        """
        pivots, cuts = self._pivots, self._cuts
        scalar = self._scalar
        if len(pivots) != len(cuts):
            raise CrackerError("pivots and cuts misaligned")
        if any(type(p) is not scalar for p in pivots) or any(
            type(c) is not int for c in cuts
        ):
            raise CrackerError("pivots or cuts are not Python scalars")
        # Not ``any(>=)``: NaN compares false both ways, and a lone NaN
        # has no neighbour to compare with.
        if any(p != p for p in pivots) or not all(
            a < b for a, b in zip(pivots, pivots[1:])
        ):
            raise CrackerError("pivots not strictly increasing")
        if not all(a <= b for a, b in zip(cuts, cuts[1:])):
            raise CrackerError("cuts not non-decreasing")
        if cuts and (cuts[0] < 0 or cuts[-1] > self._n):
            raise CrackerError("cut positions outside [0, n]")
        if self.cut_of != dict(zip(pivots, cuts)):
            raise CrackerError("cut_of disagrees with the pivots and cuts")

    def __repr__(self) -> str:
        return (
            f"PieceMap(rows={self._n}, pieces={self.piece_count}, "
            f"cracks={self.crack_count})"
        )
