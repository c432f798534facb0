"""The piece map: ordered crack boundaries of one cracked column.

MonetDB's cracker index keeps an AVL tree mapping pivot values to the
position of the first element ``>= pivot``.  Because the cracked column
is range-partitioned, pivot order and position order coincide, so two
parallel sorted arrays with binary search give the same O(log k)
navigation with much better constants.

Representation (ISSUE 3): the pivot and cut columns are
amortized-growth **numpy buffers** navigated by ``np.searchsorted``.
Bulk operations (``apply_deltas``, ``check_invariants``, the
largest-piece selector) are vectorized.
A piece is its value range and its cuts and nothing else: a crack
keeps no per-piece flag or statistic, because nothing reads one.

The single-value navigation path used by every crack is fused into
:meth:`locate`: one binary search yields the piece index, bounds and
whether the value is already a pivot.  A range select
asks for both of its bounds at once (:meth:`locate_pair`): one
``searchsorted`` dispatch over a two-key buffer the map owns.

Beside the two arrays the map keeps :attr:`PieceMap.cut_of`, a dict
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

Pivots are stored in the column's own dtype and compared exactly:
they are range bounds the session normalised into the column's domain
(:func:`repro.storage.dtypes.normalise_range`), so an int64 pivot
beyond 2^53 is the integer it was asked for.  The top of an integer
dtype (``max + 1``, the end of the column) is never a pivot.
"""

from __future__ import annotations

import ctypes
import math
from typing import Iterator

import numpy as np

from repro.errors import CrackerError
from repro.cracking.piece import Piece
from repro.storage.dtypes import Key

_INITIAL_CAPACITY = 16


class PieceMap:
    """Crack boundaries of a column of ``n`` rows."""

    __slots__ = (
        "_n",
        "_k",
        "_pivots",
        "_cuts",
        "_pivots_addr",
        "_cuts_addr",
        "_pair",
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
        self._k = 0  # number of cracks (pivots/cuts in use)
        self._pivots = np.empty(_INITIAL_CAPACITY, dtype=dtype)
        self._cuts = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._cache_addresses()
        #: Key buffer of :meth:`locate_pair` (callers hold the index's
        #: monitor lock, so one per map suffices).
        self._pair = np.empty(2, dtype=dtype)
        #: Monotonic mutation counter (bumped by every structural
        #: change); lets callers cache derived views of the map.
        self.version = 0
        #: Pivot -> cut position of every crack.  Mutated in place
        #: only: replays hold a reference to it.
        self.cut_of: dict[Key, int] = {}

    def _cache_addresses(self) -> None:
        """Cache buffer base addresses for the memmove insert path.

        Recomputed whenever a buffer is reallocated: building the
        ``.ctypes`` interface per insert costs more than the insert.
        """
        self._pivots_addr = self._pivots.ctypes.data
        self._cuts_addr = self._cuts.ctypes.data

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
        map's ``dtype``.
        Buffers are reallocated with growth headroom and addresses
        recached; the version
        counter restarts at 0 (it orders mutations within one process
        lifetime only).

        Raises:
            CrackerError: when the arrays violate the map invariants.
        """
        pivots = np.asarray(pivots)
        cuts = np.asarray(cuts, dtype=np.int64)
        k = len(pivots)
        if len(cuts) != k:
            raise CrackerError(
                f"piece-map state misaligned: {k} pivots, {len(cuts)} cuts"
            )
        piece_map = cls(n, dtype=dtype)
        capacity = max(_INITIAL_CAPACITY, k)
        piece_map._k = k
        piece_map._pivots = np.empty(capacity, dtype=dtype)
        piece_map._pivots[:k] = pivots
        piece_map._cuts = np.empty(capacity, dtype=np.int64)
        piece_map._cuts[:k] = cuts
        piece_map._cache_addresses()
        piece_map._refill_cut_of()
        piece_map.check_invariants()
        if not (piece_map._pivots[:k] == pivots).all():
            raise CrackerError(f"pivots are not all {dtype} values")
        return piece_map

    # -- inspection ----------------------------------------------------

    @property
    def row_count(self) -> int:
        return self._n

    @property
    def piece_count(self) -> int:
        return self._k + 1

    @property
    def crack_count(self) -> int:
        return self._k

    @property
    def dtype(self) -> np.dtype:
        """The dtype the pivots are stored (and compared) in."""
        return self._pivots.dtype

    def pivots(self) -> list[Key]:
        """The pivot values, in increasing order (copy)."""
        return self._pivots[: self._k].tolist()

    def cuts(self) -> list[int]:
        """The cut positions aligned with :meth:`pivots` (copy)."""
        return self._cuts[: self._k].tolist()

    def piece_at_index(self, index: int) -> Piece:
        """The ``index``-th piece, in position/value order.

        Raises:
            CrackerError: if ``index`` is out of range.
        """
        k = self._k
        if index < 0 or index > k:
            raise CrackerError(
                f"piece index {index} out of range "
                f"[0, {self.piece_count})"
            )
        start = int(self._cuts[index - 1]) if index > 0 else 0
        end = int(self._cuts[index]) if index < k else self._n
        low = self._pivots.item(index - 1) if index > 0 else -math.inf
        high = self._pivots.item(index) if index < k else math.inf
        return Piece(start, end, low, high)

    def _located(self, i: int, value: Key) -> tuple[int, int, int, bool]:
        """What :meth:`locate` reports for ``value`` once its binary
        search has answered ``i``; plain Python scalars."""
        cuts = self._cuts
        return (
            i,
            cuts.item(i - 1) if i > 0 else 0,
            cuts.item(i) if i < self._k else self._n,
            i > 0 and self._pivots.item(i - 1) == value,
        )

    def locate(self, value: Key) -> tuple[int, int, int, bool]:
        """One-binary-search lookup of the piece containing ``value``.

        Returns ``(piece_index, start, end, at_pivot)`` --
        everything a crack needs, without constructing a
        :class:`Piece` or re-searching for the pivot.  ``at_pivot`` is
        True when ``value`` is already a crack boundary; the piece
        returned is then the one *at or right of* the pivot, whose
        ``start`` is exactly the pivot's cut position.
        """
        i = self._pivots[: self._k].searchsorted(value, side="right")
        return self._located(int(i), value)

    def locate_pair(
        self, low: Key, high: Key
    ) -> tuple[tuple[int, int, int, bool], tuple[int, int, int, bool]]:
        """``(locate(low), locate(high))`` from one binary-search
        dispatch -- both bounds of a range select.

        Not re-entrant: the two keys travel in a buffer the map owns,
        so callers serialise (the cracker index's monitor lock does).
        """
        keys = self._pair
        keys[0] = low
        keys[1] = high
        i, j = (
            self._pivots[: self._k].searchsorted(keys, side="right").tolist()
        )
        return self._located(i, low), self._located(j, high)

    def locate_many(
        self, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`locate` for many values at once.

        Returns ``(piece_indices, starts, ends, at_pivot)``
        arrays aligned with ``values`` -- one ``searchsorted`` over
        the pivot column instead of one binary search per value.
        ``starts`` is each containing piece's start position (for
        ``at_pivot`` entries that is exactly the pivot's cut position,
        as in :meth:`locate`).
        """
        k = self._k
        indices = self._pivots[:k].searchsorted(values, side="right")
        if k:
            left = np.maximum(indices - 1, 0)
            at_pivot = (indices > 0) & (self._pivots[left] == values)
            starts = np.where(indices > 0, self._cuts[left], 0)
            ends = np.where(
                indices < k, self._cuts[np.minimum(indices, k - 1)], self._n
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
        column replaces per-crack binary searches and tail shifts --
        the piece-map half of a batched physical pass.

        Raises:
            CrackerError: if the splice would violate the piece-map
                invariants.
        """
        fresh = len(pivots)
        if fresh == 0:
            return
        k = self._k
        positions = np.asarray(positions, dtype=np.int64)
        slots = self._pivots[:k].searchsorted(pivots, side="left")
        new_pivots = np.insert(self._pivots[:k], slots, pivots)
        new_cuts = np.insert(self._cuts[:k], slots, positions)
        total = k + fresh
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
        capacity = self._pivots.size
        while capacity < total:
            capacity *= 2
        pivot_buf = np.empty(capacity, dtype=self._pivots.dtype)
        cut_buf = np.empty(capacity, dtype=np.int64)
        pivot_buf[:total] = new_pivots
        cut_buf[:total] = new_cuts
        self._pivots = pivot_buf
        self._cuts = cut_buf
        self._k = total
        self._cache_addresses()
        self.cut_of.update(
            zip(
                np.asarray(pivots, dtype=pivot_buf.dtype).tolist(),
                positions.tolist(),
            )
        )
        self.version += 1

    def piece_index_for_value(self, value: Key) -> int:
        """Index of the piece whose value interval contains ``value``."""
        return self.locate(value)[0]

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

    def _sizes_array(self) -> np.ndarray:
        """Piece sizes as an int64 array (vectorized, O(k))."""
        return np.diff(
            self._cuts[: self._k], prepend=0, append=self._n
        )

    def average_piece_size(self) -> float:
        return self._n / self.piece_count if self.piece_count else 0.0

    def largest_piece(self) -> Piece:
        """The first biggest piece."""
        return self.piece_at_index(int(np.argmax(self._sizes_array())))

    # -- mutation ------------------------------------------------------

    def _grow(self) -> None:
        capacity = 2 * self._pivots.size
        pivots = np.empty(capacity, dtype=self._pivots.dtype)
        cuts = np.empty(capacity, dtype=np.int64)
        k = self._k
        pivots[:k] = self._pivots[:k]
        cuts[:k] = self._cuts[:k]
        self._pivots = pivots
        self._cuts = cuts
        self._cache_addresses()

    def _insert_crack(self, i: int, pivot: Key, position: int) -> None:
        """Insert a validated crack at slot ``i`` (buffer shifts)."""
        k = self._k
        if k == self._pivots.size:
            self._grow()
        if i < k:
            # ctypes.memmove (cached base addresses) instead of an
            # overlapping slice assignment: numpy detects the overlap
            # and materializes a temporary copy of the tail on every
            # insert, which dominated the crack profile.  A pivot is
            # the dtype's width (4 bytes for int32), a cut 8.
            width = self._pivots.itemsize
            ctypes.memmove(
                self._pivots_addr + (i + 1) * width,
                self._pivots_addr + i * width,
                (k - i) * width,
            )
            ctypes.memmove(
                self._cuts_addr + (i + 1) * 8,
                self._cuts_addr + i * 8,
                (k - i) * 8,
            )
        self._pivots[i] = pivot
        self._cuts[i] = position
        self.cut_of[pivot] = position
        self._k = k + 1
        self.version += 1

    def add_crack(self, pivot: Key, position: int) -> None:
        """Record that the column was cracked at ``pivot``/``position``.

        Splits the containing piece in two.

        Raises:
            CrackerError: if the pivot already exists or the position
                violates the piece-ordering invariants.
        """
        k = self._k
        i = int(self._pivots[:k].searchsorted(pivot, side="left"))
        if i < k and self._pivots[i] == pivot:
            raise CrackerError(f"pivot {pivot!r} already recorded")
        self.add_crack_at(i, pivot, position)

    def add_crack_at(self, i: int, pivot: Key, position: int) -> None:
        """Record a crack whose insertion slot ``i`` is already known.

        The fast path for callers that just called :meth:`locate` (the
        piece index of a non-pivot value *is* its insertion slot),
        skipping the second binary search of :meth:`add_crack`.

        Raises:
            CrackerError: if the pivot is not a value of the map's
                dtype (a fraction on an integer map, NaN), or it or the
                position violates the piece-ordering invariants.
        """
        k = self._k
        if (
            self._pivots.dtype.type(pivot) != pivot
            or (i > 0 and self._pivots[i - 1] >= pivot)
            or (i < k and pivot >= self._pivots[i])
        ):
            raise CrackerError(
                f"pivot {pivot!r} out of order for insertion slot {i}"
            )
        left_bound = int(self._cuts[i - 1]) if i > 0 else 0
        right_bound = int(self._cuts[i]) if i < k else self._n
        if not left_bound <= position <= right_bound:
            raise CrackerError(
                f"cut position {position} for pivot {pivot!r} outside "
                f"containing piece [{left_bound}, {right_bound}]"
            )
        self._insert_crack(i, pivot, position)

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
        sizes = self._sizes_array()
        shrunk = sizes + delta_arr < 0
        if np.any(shrunk):
            index = int(np.argmax(shrunk))
            raise CrackerError(
                f"delta {deltas[index]} would shrink a "
                f"{int(sizes[index])}-row piece below zero"
            )
        shifts = np.cumsum(delta_arr)
        k = self._k
        if k:
            self._cuts[:k] += shifts[:k]
            self._refill_cut_of()
        self._n += int(shifts[-1])
        self.version += 1

    def _refill_cut_of(self) -> None:
        """Rebuild :attr:`cut_of` from the arrays, in place."""
        cut_of = self.cut_of
        cut_of.clear()
        cut_of.update(zip(self.pivots(), self.cuts()))

    # -- validation ----------------------------------------------------

    def check_invariants(self) -> None:
        """Validate internal invariants (used by tests and debugging).

        Raises:
            CrackerError: on any violation.
        """
        k = self._k
        pivots = self._pivots[:k]
        cuts = self._cuts[:k]
        # Not ``any(>=)``: NaN compares false both ways, and a lone NaN
        # has no neighbour to compare with.
        if np.isnan(pivots).any() or not (pivots[:-1] < pivots[1:]).all():
            raise CrackerError("pivots not strictly increasing")
        if np.any(cuts[:-1] > cuts[1:]):
            raise CrackerError("cuts not non-decreasing")
        if k and (cuts[0] < 0 or cuts[-1] > self._n):
            raise CrackerError("cut positions outside [0, n]")
        if self.cut_of != dict(zip(self.pivots(), self.cuts())):
            raise CrackerError("cut_of disagrees with the pivots and cuts")

    def __repr__(self) -> str:
        return (
            f"PieceMap(rows={self._n}, pieces={self.piece_count}, "
            f"cracks={self.crack_count})"
        )
