"""The piece map: ordered crack boundaries of one cracked column.

MonetDB's cracker index keeps an AVL tree mapping pivot values to the
position of the first element ``>= pivot``.  Because the cracked column
is range-partitioned, pivot order and position order coincide, so two
parallel sorted arrays with binary search give the same O(log k)
navigation with much better constants.

Representation (ISSUE 3): the pivot/cut/sorted-flag columns are
amortized-growth **numpy buffers** navigated by ``np.searchsorted``.
Bulk operations (``piece_sizes``, ``shift_from``, ``apply_deltas``,
``check_invariants``, the unsorted-piece selectors) are vectorized,
and the maximum piece size is maintained incrementally: a split never
grows a piece, so the cached maximum only needs a vectorized rescan
when the last maximum-sized piece is itself split (dirty flag).
``max_piece_size`` is O(1) on the clean path instead of O(k) per call.

The single-value navigation path used by every crack is fused into
:meth:`locate`: one binary search yields the piece index, bounds,
sorted flag and whether the value is already a pivot.  A range select
asks for both of its bounds at once (:meth:`locate_pair`): one
``searchsorted`` dispatch over a two-key buffer the map owns.

Invariants (checked by :meth:`PieceMap.check_invariants` and the
property tests):

* ``pivots`` is strictly increasing (so none of them is NaN);
* ``cuts`` is non-decreasing, each within ``[0, n]``;
* piece ``i`` spans positions ``[cuts[i-1], cuts[i])`` (sentinels 0 and
  ``n``) and values ``[pivots[i-1], pivots[i])`` (sentinels -inf/+inf);
* the sorted-flag column has exactly ``len(pivots) + 1`` entries.

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
        "_sorted",
        "_pivots_addr",
        "_cuts_addr",
        "_sorted_addr",
        "_pair",
        "_max_size",
        "_max_count",
        "_max_dirty",
        "_version",
    )

    def __init__(
        self,
        n: int,
        sorted_initially: bool = False,
        dtype: np.dtype = np.dtype(np.float64),
    ) -> None:
        if n < 0:
            raise CrackerError(f"row count must be >= 0, got {n}")
        self._n = n
        self._k = 0  # number of cracks (pivots/cuts in use)
        self._pivots = np.empty(_INITIAL_CAPACITY, dtype=dtype)
        self._cuts = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._sorted = np.zeros(_INITIAL_CAPACITY + 1, dtype=bool)
        self._sorted[0] = sorted_initially
        self._cache_addresses()
        #: Key buffer of :meth:`locate_pair` (callers hold the index's
        #: monitor lock, so one per map suffices).
        self._pair = np.empty(2, dtype=dtype)
        self._max_size = n
        self._max_count = 1
        self._max_dirty = False
        self._version = 0

    def _cache_addresses(self) -> None:
        """Cache buffer base addresses for the memmove insert path.

        Recomputed whenever a buffer is reallocated: building the
        ``.ctypes`` interface per insert costs more than the insert.
        """
        self._pivots_addr = self._pivots.ctypes.data
        self._cuts_addr = self._cuts.ctypes.data
        self._sorted_addr = self._sorted.ctypes.data

    @classmethod
    def from_state(
        cls,
        n: int,
        pivots: np.ndarray,
        cuts: np.ndarray,
        sorted_flags: np.ndarray,
        dtype: np.dtype = np.dtype(np.float64),
    ) -> "PieceMap":
        """Rebuild a piece map from exported compact arrays (snapshots).

        ``pivots``/``cuts`` are the ``k`` crack boundaries and
        ``sorted_flags`` the ``k + 1`` per-piece flags, exactly as
        :meth:`pivots`/:meth:`cuts`/:meth:`sorted_flags` export them,
        with ``pivots`` in the map's ``dtype``.
        Buffers are reallocated with growth headroom, addresses
        recached, and the max-piece cache recomputed; the version
        counter restarts at 0 (it orders mutations within one process
        lifetime only).

        Raises:
            CrackerError: when the arrays violate the map invariants.
        """
        pivots = np.asarray(pivots)
        cuts = np.asarray(cuts, dtype=np.int64)
        sorted_flags = np.asarray(sorted_flags, dtype=bool)
        k = len(pivots)
        if len(cuts) != k or len(sorted_flags) != k + 1:
            raise CrackerError(
                f"piece-map state misaligned: {k} pivots, {len(cuts)} "
                f"cuts, {len(sorted_flags)} sorted flags"
            )
        piece_map = cls(n, dtype=dtype)
        capacity = max(_INITIAL_CAPACITY, k)
        piece_map._k = k
        piece_map._pivots = np.empty(capacity, dtype=dtype)
        piece_map._pivots[:k] = pivots
        piece_map._cuts = np.empty(capacity, dtype=np.int64)
        piece_map._cuts[:k] = cuts
        piece_map._sorted = np.zeros(capacity + 1, dtype=bool)
        piece_map._sorted[: k + 1] = sorted_flags
        piece_map._cache_addresses()
        piece_map._recompute_max()
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
    def version(self) -> int:
        """Monotonic mutation counter (bumped by every structural
        change); lets callers cache derived views of the map."""
        return self._version

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

    def sorted_flags(self) -> list[bool]:
        """Per-piece sorted flags, in piece order (copy)."""
        return self._sorted[: self._k + 1].tolist()

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
        return Piece(start, end, low, high, bool(self._sorted[index]))

    def _located(
        self, i: int, value: Key
    ) -> tuple[int, int, int, bool, bool]:
        """What :meth:`locate` reports for ``value`` once its binary
        search has answered ``i``; plain Python scalars."""
        cuts = self._cuts
        return (
            i,
            cuts.item(i - 1) if i > 0 else 0,
            cuts.item(i) if i < self._k else self._n,
            self._sorted.item(i),
            i > 0 and self._pivots.item(i - 1) == value,
        )

    def locate(
        self, value: Key
    ) -> tuple[int, int, int, bool, bool]:
        """One-binary-search lookup of the piece containing ``value``.

        Returns ``(piece_index, start, end, is_sorted, at_pivot)`` --
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
    ) -> tuple[
        tuple[int, int, int, bool, bool], tuple[int, int, int, bool, bool]
    ]:
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
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`locate` for many values at once.

        Returns ``(piece_indices, starts, ends, is_sorted, at_pivot)``
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
        flags = self._sorted[indices]
        return indices, starts, ends, flags, at_pivot

    def insert_cracks_bulk(
        self, pivots: np.ndarray, positions: np.ndarray
    ) -> None:
        """Record many cracks in one vectorized splice.

        ``pivots`` must be strictly increasing, none of them already
        recorded, with ``positions`` aligned; every new piece inherits
        its containing piece's sorted flag, exactly as repeated
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
        flags = self._sorted[: k + 1]
        new_flags = np.insert(flags, slots, flags[slots])
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
        flag_buf = np.zeros(capacity + 1, dtype=bool)
        pivot_buf[:total] = new_pivots
        cut_buf[:total] = new_cuts
        flag_buf[: total + 1] = new_flags
        self._pivots = pivot_buf
        self._cuts = cut_buf
        self._sorted = flag_buf
        self._k = total
        self._cache_addresses()
        self._max_dirty = True
        self._version += 1

    def piece_index_for_value(self, value: Key) -> int:
        """Index of the piece whose value interval contains ``value``."""
        return self.locate(value)[0]

    def piece_for_value(self, value: Key) -> Piece:
        """The piece whose value interval contains ``value``."""
        return self.piece_at_index(self.piece_index_for_value(value))

    def has_pivot(self, value: Key) -> bool:
        """Whether ``value`` is already a crack boundary."""
        return self.locate(value)[4]

    def position_of_pivot(self, value: Key) -> int:
        """Cut position of an existing pivot.

        Raises:
            CrackerError: if ``value`` is not a pivot.
        """
        _, start, _, _, at_pivot = self.locate(value)
        if not at_pivot:
            raise CrackerError(f"{value!r} is not a crack boundary")
        return start

    def pieces(self) -> Iterator[Piece]:
        """All pieces in order."""
        for i in range(self.piece_count):
            yield self.piece_at_index(i)

    def _sizes_array(self) -> np.ndarray:
        """Piece sizes as an int64 array (vectorized, O(k))."""
        return np.diff(
            self._cuts[: self._k], prepend=0, append=self._n
        )

    def piece_sizes(self) -> list[int]:
        """Sizes of all pieces, in order."""
        return self._sizes_array().tolist()

    def _recompute_max(self) -> None:
        sizes = self._sizes_array()
        self._max_size = int(sizes.max())
        self._max_count = int(np.count_nonzero(sizes == self._max_size))
        self._max_dirty = False

    def max_piece_size(self) -> int:
        """The largest piece's row count (O(1) amortized)."""
        if self._max_dirty:
            self._recompute_max()
        return self._max_size

    def _max_track_resize(self, old_size: int, new_size: int) -> None:
        """Maintain the cached maximum across one piece's size change."""
        if self._max_dirty:
            return
        if old_size == self._max_size:
            self._max_count -= 1
        if new_size > self._max_size:
            self._max_size = new_size
            self._max_count = 1
        elif new_size == self._max_size:
            self._max_count += 1
        if self._max_count <= 0:
            self._max_dirty = True

    def average_piece_size(self) -> float:
        return self._n / self.piece_count if self.piece_count else 0.0

    def largest_unsorted_piece(self) -> Piece | None:
        """The first biggest piece that is not yet sorted, or ``None``."""
        sizes = self._sizes_array()
        masked = np.where(self._sorted[: self._k + 1], -1, sizes)
        index = int(np.argmax(masked))
        if masked[index] < 0:
            return None
        return self.piece_at_index(index)

    def smallest_unsorted_index(self, min_size: int = 2) -> int | None:
        """Index of the first smallest unsorted piece of >= ``min_size``
        rows, or ``None`` when every such piece is sorted."""
        sizes = self._sizes_array()
        sentinel = self._n + 1
        masked = np.where(
            self._sorted[: self._k + 1] | (sizes < min_size),
            sentinel,
            sizes,
        )
        index = int(np.argmin(masked))
        if masked[index] == sentinel:
            return None
        return index

    # -- mutation ------------------------------------------------------

    def _grow(self) -> None:
        capacity = 2 * self._pivots.size
        pivots = np.empty(capacity, dtype=self._pivots.dtype)
        cuts = np.empty(capacity, dtype=np.int64)
        flags = np.zeros(capacity + 1, dtype=bool)
        k = self._k
        pivots[:k] = self._pivots[:k]
        cuts[:k] = self._cuts[:k]
        flags[: k + 1] = self._sorted[: k + 1]
        self._pivots = pivots
        self._cuts = cuts
        self._sorted = flags
        self._cache_addresses()

    def _insert_crack(
        self,
        i: int,
        pivot: Key,
        position: int,
        left_bound: int,
        right_bound: int,
    ) -> None:
        """Insert a validated crack at slot ``i`` (buffer shifts)."""
        k = self._k
        if k == self._pivots.size:
            self._grow()
        if i < k:
            # ctypes.memmove (cached base addresses) instead of an
            # overlapping slice assignment: numpy detects the overlap
            # and materializes a temporary copy of the tail on every
            # insert, which dominated the crack profile.
            tail8 = (k - i) * 8
            offset8 = i * 8
            ctypes.memmove(
                self._pivots_addr + offset8 + 8,
                self._pivots_addr + offset8,
                tail8,
            )
            ctypes.memmove(
                self._cuts_addr + offset8 + 8,
                self._cuts_addr + offset8,
                tail8,
            )
        ctypes.memmove(
            self._sorted_addr + i + 1,
            self._sorted_addr + i,
            k + 1 - i,
        )
        self._pivots[i] = pivot
        self._cuts[i] = position
        self._k = k + 1
        self._version += 1
        self._max_track_split(
            right_bound - left_bound, position - left_bound
        )

    def _max_track_split(self, size: int, left_size: int) -> None:
        """Maintain the cached maximum across one piece split."""
        if self._max_dirty or size < self._max_size:
            return
        # size == max (a split can never grow a piece).
        if left_size == size or left_size == 0:
            return  # degenerate split keeps a max-sized piece
        self._max_count -= 1
        if self._max_count == 0:
            self._max_dirty = True

    def add_crack(self, pivot: Key, position: int) -> None:
        """Record that the column was cracked at ``pivot``/``position``.

        Splits the containing piece; both halves inherit its sorted
        flag (cracking a sorted piece is a positional split that keeps
        both halves sorted).

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
        self._insert_crack(i, pivot, position, left_bound, right_bound)

    def mark_sorted(self, piece_index: int) -> None:
        """Flag a piece as fully sorted.

        Raises:
            CrackerError: if the index is out of range.
        """
        if piece_index < 0 or piece_index >= self.piece_count:
            raise CrackerError(
                f"piece index {piece_index} out of range "
                f"[0, {self.piece_count})"
            )
        self._sorted[piece_index] = True
        self._version += 1

    def mark_unsorted(self, piece_index: int) -> None:
        """Clear a piece's sorted flag (after in-piece insertions).

        Raises:
            CrackerError: if the index is out of range.
        """
        if piece_index < 0 or piece_index >= self.piece_count:
            raise CrackerError(
                f"piece index {piece_index} out of range "
                f"[0, {self.piece_count})"
            )
        self._sorted[piece_index] = False
        self._version += 1

    def is_piece_sorted(self, piece_index: int) -> bool:
        if piece_index < 0 or piece_index >= self.piece_count:
            raise CrackerError(
                f"piece index {piece_index} out of range "
                f"[0, {self.piece_count})"
            )
        return bool(self._sorted[piece_index])

    def shift_from(self, position: int, delta: int) -> None:
        """Shift all cuts at or beyond ``position`` by ``delta`` rows.

        Used by update merging: inserting rows into a piece moves every
        later piece.  ``row_count`` grows by ``delta``.  The first
        affected cut is found by binary search; cuts left of
        ``position`` are never touched (a ``position`` past all cuts
        only grows the last piece).

        Raises:
            CrackerError: if ``delta`` would make the map inconsistent.
        """
        if self._n + delta < 0:
            raise CrackerError(
                f"shift by {delta} would make row count negative"
            )
        k = self._k
        i = int(np.searchsorted(self._cuts[:k], position, side="left"))
        if i < k:
            first = int(self._cuts[i])
            if first + delta < 0:
                raise CrackerError(
                    f"shift by {delta} drives cut {first} negative"
                )
        if delta != 0:
            # Piece i is the one whose end moves; later pieces shift
            # wholesale and keep their sizes.
            old_end = int(self._cuts[i]) if i < k else self._n
            start = int(self._cuts[i - 1]) if i > 0 else 0
            self._max_track_resize(
                old_end - start, old_end + delta - start
            )
            if i < k:
                self._cuts[i:k] += delta
        self._n += delta
        self._version += 1

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
        self._n += int(shifts[-1])
        self._max_dirty = True
        self._version += 1

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
        if not self._max_dirty:
            sizes = self._sizes_array()
            true_max = int(sizes.max())
            if true_max != self._max_size:
                raise CrackerError(
                    f"cached max piece size {self._max_size} != "
                    f"actual {true_max}"
                )

    def __repr__(self) -> str:
        return (
            f"PieceMap(rows={self._n}, pieces={self.piece_count}, "
            f"cracks={self.crack_count})"
        )
