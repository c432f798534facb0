"""The cracker index: a self-organizing partial index on one column.

This reproduces MonetDB's database-cracking module [12], the substrate
the paper's holistic prototype was hand-tuned from.  The index is a
physical copy of the column (the *cracker column*) plus a
:class:`PieceMap` of its pivots and cuts, and nothing else: the
kernel's queries are single-column range selects, so no base-table
positions ride along with the cracks.

Range selects crack the pieces containing the query bounds and return a
contiguous :class:`RangeView` -- each query refines the index a little,
each refinement is priced through the shared clock and counted on the
:class:`CrackTape`.

Auxiliary refinements -- the cracks holistic indexing injects during
idle time -- use the same machinery with ``CrackOrigin.TUNING``.  A
window of selects, a served window and a tuning batch share one
physical multi-pivot pass (:meth:`CrackerIndex._crack_pass`) and
differ only in how they price its record.

Each index partitions through its own :class:`CrackScratch` (structural
operations run under the monitor lock) and stores the cracker column in
the narrowest lossless dtype: an ``int64`` column that fits ``int32``
is cracked as ``int32``, and update merging widens it back if
out-of-range values arrive (:meth:`ensure_values_fit`).
"""

from __future__ import annotations

import functools
import math
import threading
from bisect import bisect_left
from typing import NamedTuple, Sequence

import numpy as np

from repro.cracking.batch import CrackSelectBatch
from repro.cracking.engine import (
    CrackScratch,
    crack_in_three,
    crack_in_two,
    crack_multi,
    crack_spans_batch,
    sort_piece,
)
from repro.cracking.piece import CrackOrigin, Piece
from repro.cracking.piecemap import PieceMap
from repro.cracking.tape import CrackTape
from repro.errors import CrackerError, QueryError
from repro.simtime.clock import Clock, SimClock
from repro.storage.column import Column
from repro.storage.dtypes import Key, largest, normalise_bound, normalise_range
from repro.storage.views import RangeView

_INT32_MIN = -(2**31)
_INT32_MAX = 2**31 - 1


def _synchronized(method):
    """Run ``method`` under the index's monitor lock."""

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self.lock:
            return method(self, *args, **kwargs)

    return wrapper


class CrackPass(NamedTuple):
    """The record of one physical multi-pivot pass
    (:meth:`CrackerIndex._crack_pass`): each distinct fresh value,
    ascending, with its pre-pass piece index, start and end, and
    whether the pass made the column's base copy.  The positions the
    pass cut them at are in the piece map's
    :attr:`~repro.cracking.piecemap.PieceMap.cut_of`.
    """

    fresh: list[Key]
    pieces: list[int]
    piece_starts: list[int]
    piece_ends: list[int]
    copied: bool = False


class CrackerIndex:
    """A cracked copy of one column, refined by queries and tuning.

    Args:
        column: the base column to index.
        clock: time source charged for every refinement; defaults to a
            private :class:`SimClock` (useful for unit tests).
        tape: refinement log to append to; a fresh one by default.

    The cost of copying the base column is charged to the first
    refinement, not to index creation (MonetDB behaviour), and the
    copy is stored in the narrowest lossless dtype.
    """

    def __init__(
        self,
        column: Column,
        clock: Clock | None = None,
        tape: CrackTape | None = None,
    ) -> None:
        self.column = column
        self.clock: Clock = clock if clock is not None else SimClock()
        #: Monitor lock: every structural read-modify-write on the
        #: cracker column and piece map runs under it, making the index
        #: safe to share between tuning worker threads.  Reentrant
        #: because select_range calls ensure_cut.
        self.lock = threading.RLock()
        self._array = self._materialize_values(column)
        self._pieces = PieceMap(
            column.row_count, dtype=column.ctype.numpy_dtype
        )
        #: Range bounds above this run to the end of the column.
        self._largest = largest(column.ctype.numpy_dtype)
        self._scratch = CrackScratch()
        #: (piece-map version, last batch context) -- lets consecutive
        #: windows reuse its shadow map (see begin_select_batch).
        self._replay_cache: tuple[int, CrackSelectBatch] | None = None
        #: Shared warm-path result views for batched selects, keyed by
        #: (pos_low, pos_high); valid for one physical array
        #: generation (cut positions never move under pure cracking).
        self._span_views: dict[tuple[int, int], RangeView] = {}
        # A strong reference (not an id -- those can be recycled) to
        # the array the cached views slice.
        self._span_views_array = self._array
        self.tape = tape if tape is not None else CrackTape()
        self._copy_charged = False

    @classmethod
    def from_state(
        cls,
        column: Column,
        piece_map: PieceMap,
        clock: Clock | None = None,
        tape: CrackTape | None = None,
        copy_charged: bool = True,
    ) -> "CrackerIndex":
        """Rebuild an index from its piece map (snapshot restore).

        Cracking reorders a column and never changes its content, so
        the column copied as a live index copies it, then sorted,
        agrees with every piece map of that column: O(n log n),
        uncharged (the restored clock holds what the live index paid).
        Each cut must be where a binary search of it puts its pivot.
        ``copy_charged`` preserves whether the base-copy
        materialization charge was already paid.

        Raises:
            CrackerError: when the piece map disagrees with the column.
        """
        index = cls(column, clock, tape)
        values = index._array
        values.sort()
        if piece_map.row_count != len(values):
            raise CrackerError(
                f"piece map covers {piece_map.row_count} rows, the "
                f"column {len(values)}"
            )
        pivots = np.asarray(piece_map.pivots(), dtype=piece_map.dtype)
        above = np.zeros(len(pivots), dtype=bool)
        if values.dtype == np.int32:
            # Search in the column's own dtype, not a widened copy: a
            # pivot past int32's top lies above every row.
            above = pivots > _INT32_MAX
            pivots = np.clip(pivots, _INT32_MIN, _INT32_MAX).astype(np.int32)
        found = np.where(above, len(values), np.searchsorted(values, pivots))
        if not np.array_equal(found, piece_map.cuts()):
            raise CrackerError("piece map cuts disagree with the column")
        index._pieces = piece_map
        index._copy_charged = copy_charged
        return index

    @staticmethod
    def _materialize_values(column: Column) -> np.ndarray:
        """Copy the column, narrowed to int32 when lossless."""
        values = column.values
        if (
            values.dtype == np.int64
            and len(values)
            and _INT32_MIN <= column.stats.min_value
            and column.stats.max_value <= _INT32_MAX
        ):
            return values.astype(np.int32)
        return column.copy_values()

    # -- inspection ----------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """The cracker column (range-partitioned values)."""
        return self._array

    @property
    def piece_map(self) -> PieceMap:
        return self._pieces

    def span_views(self) -> dict[tuple[int, int], RangeView]:
        """The warm-path result views shared by every window replay,
        keyed by ``(pos_low, pos_high)`` -- emptied first if update
        merges, a widening or a rebuild replaced the physical array
        (cut positions may have shifted, cached views slice the old
        array)."""
        if self._span_views_array is not self._array:
            self._span_views = {}
            self._span_views_array = self._array
        return self._span_views

    @property
    def row_count(self) -> int:
        return len(self._array)

    @property
    def piece_count(self) -> int:
        return self._pieces.piece_count

    @property
    def crack_count(self) -> int:
        return self._pieces.crack_count

    def average_piece_size(self) -> float:
        return self._pieces.average_piece_size()

    # -- core refinement -----------------------------------------------

    def _charge_copy_if_needed(self) -> None:
        if self._copy_charged:
            return
        self._copy_charged = True
        if self.row_count:
            self.clock.charge_materialize(self.row_count)

    def _pivot_key(self, value: object) -> Key:
        """``value`` as a pivot of this column (see
        :func:`~repro.storage.dtypes.normalise_bound`).

        Raises:
            CrackerError: for NaN, or a value past the column's top --
                neither is a pivot.
        """
        key = normalise_bound(self._pieces.dtype, value)
        if key is None or key > self._largest:
            raise CrackerError(f"{value!r} is not a pivot of this column")
        return key

    def _cut_located(
        self,
        value: Key,
        index: int,
        start: int,
        end: int,
        at_pivot: bool,
        origin: CrackOrigin,
    ) -> int:
        """Crack at an already-located ``value``; the caller holds the
        lock and, unless ``at_pivot``, has charged the column's copy.

        ``index``/``start``/``end``/``at_pivot`` come from
        :meth:`PieceMap.locate` with no intervening mutation.
        """
        if at_pivot:
            # A pivot hit: one binary search over the pieces.
            self.clock.charge_probes(self._pieces.piece_count, 1)
            return start
        position = crack_in_two(
            self._array, start, end, value, scratch=self._scratch
        )
        self._pieces.add_crack_at(index, value, position)
        if end > start:
            self.clock.charge_crack(end - start, 1)
        else:
            self.clock.charge_empty_crack()
        self.tape.log(origin)
        return position

    @_synchronized
    def ensure_cut(
        self, value: object, origin: CrackOrigin = CrackOrigin.QUERY
    ) -> int:
        """Crack at ``value`` if needed; return its cut position.

        The position is that of the first element ``>= value`` in the
        cracker column.  Existing pivots are located with a piece-map
        lookup only.  ``value`` is normalised into the column's domain
        first (an integer column cracks at its ceiling).
        """
        value = self._pivot_key(value)
        index, start, end, at_pivot = self._pieces.locate(value)
        if not at_pivot:
            self._charge_copy_if_needed()
        return self._cut_located(value, index, start, end, at_pivot, origin)

    @_synchronized
    def ensure_cuts(self, values: list[object]) -> list[int]:
        """Crack at many values in one go (paper §3's batch question):
        :meth:`_crack_pass` -- a window's physical pass -- cuts every
        fresh value and :meth:`price_pass` prices its record.

        Returns the cut position of every value (normalised as in
        :meth:`ensure_cut`), in input order.
        """
        keys = [self._pivot_key(value) for value in values]
        self.price_pass(
            self._crack_pass(np.array(keys, dtype=self._pieces.dtype))
        )
        cut_of = self._pieces.cut_of
        return [cut_of[key] for key in keys]

    @_synchronized
    def tuning_pass(
        self, values: Sequence[object], min_piece_size: int
    ) -> CrackPass:
        """A tuning worker's batch: drop the degenerate ``values`` --
        one that is already a pivot, or whose piece is at/below
        ``min_piece_size``, the contract of :meth:`random_crack` --
        and cut the rest in one :meth:`_crack_pass`.

        Nothing is charged or logged: whoever accounts for the batch
        hands the record to :meth:`price_pass`.
        """
        keys = np.array(
            [self._pivot_key(value) for value in values],
            dtype=self._pieces.dtype,
        )
        _, starts, ends, at_pivot = self._pieces.locate_many(keys)
        return self._crack_pass(
            keys[~at_pivot & (ends - starts > min_piece_size)]
        )

    def price_pass(self, record: CrackPass) -> None:
        """Charge and log a tuning pass's record: the base copy if the
        pass made it, then piece by piece, right to left, each piece's
        cuts logged in ascending order:

        * a piece taking one pivot: one crack of the piece (an empty
          piece, the crack alone);
        * a piece taking ``k >= 2``: one counting partition of ``2 *
          size`` elements -- a classify and a scatter pass, cheaper
          than ``k`` sequential :meth:`ensure_cut` calls.

        Pivot hits are free.  Reads only the record, so it needs no
        lock.
        """
        clock, tape = self.clock, self.tape
        if record.copied and self.row_count:
            clock.charge_materialize(self.row_count)
        pieces = record.pieces
        hi = len(pieces)
        while hi:
            lo = bisect_left(pieces, pieces[hi - 1], 0, hi)
            start, end = record.piece_starts[lo], record.piece_ends[lo]
            size = end - start
            if hi - lo > 1:
                clock.charge_crack(2 * size, hi - lo)
            elif size:
                clock.charge_crack(size, 1)
            else:
                clock.charge_empty_crack()
            tape.log(CrackOrigin.TUNING, hi - lo)
            hi = lo

    @_synchronized
    def select_range(self, low: object, high: object) -> RangeView:
        """Answer ``low <= value < high``, refining the index on the way.

        The bounds are normalised into the column's domain first
        (:func:`~repro.storage.dtypes.normalise_range`: ``10.5`` on an
        integer column is ``11``); a range no value can lie in answers
        empty and leaves the index untouched.

        Raises:
            QueryError: if ``low > high``.
        """
        if low > high:  # type: ignore[operator]
            raise QueryError(f"range inverted: low={low} > high={high}")
        bounds = normalise_range(self._pieces.dtype, low, high)
        if bounds is None:
            return RangeView(self._array, 0, 0)
        return self.select_keys(*bounds)

    def select_keys(self, low: Key, high: Key) -> RangeView:
        """:meth:`select_range` of a range already normalised into the
        column's domain (``low < high``) -- what a session passes.

        When both bounds fall in the same piece a single
        crack-in-three pass handles them together (one pass instead of
        two), exactly as MonetDB's select operator does.  A ``high``
        past the column's top cuts at ``low`` only: the range runs to
        the end of the column.  A converged range is answered with the
        view :meth:`span_views` files for it on its first visit.
        """
        # The monitor lock in the body, not through _synchronized: one
        # frame less on every read.
        with self.lock:
            pieces = self._pieces
            cut_of = pieces.cut_of
            pos_low = cut_of.get(low)
            pos_high = cut_of.get(high)
            if pos_low is not None and pos_high is not None:
                # The converged select: nothing to crack, two probes
                # over the pieces, one more than the pivots in cut_of.
                self.clock.charge_probes(len(cut_of) + 1, 2)
                view = self._span_views.get((pos_low, pos_high))
                if view is None or self._span_views_array is not self._array:
                    view = RangeView(self._array, pos_low, pos_high)
                    self.span_views()[pos_low, pos_high] = view
                return view
            if high > self._largest:
                return RangeView(
                    self._array, self.ensure_cut(low), len(self._array)
                )
            low_loc, high_loc = pieces.locate_pair(low, high)
            low_index, start, end, low_pivot = low_loc
            # One bound at least is fresh: both pivots returned above.
            self._charge_copy_if_needed()
            # Same slot: no pivot lies in (low, high], so high is fresh.
            if low_index == high_loc[0] and not low_pivot and end > start:
                pos_low, pos_high = crack_in_three(
                    self._array, start, end, low, high, scratch=self._scratch
                )
                pieces.add_crack_at(low_index, low, pos_low)
                pieces.add_crack_at(low_index + 1, high, pos_high)
                self.clock.charge_crack(end - start, 2)
                self.tape.log(CrackOrigin.QUERY, 2)
            else:
                pos_low = self._cut_located(low, *low_loc, CrackOrigin.QUERY)
                if not low_pivot:
                    # The low cut took slot low_index: high's piece is
                    # one slot right, unchanged (an empty one included).
                    high_loc = (high_loc[0] + 1, *high_loc[1:])
                pos_high = self._cut_located(
                    high, *high_loc, CrackOrigin.QUERY
                )
            return RangeView(self._array, pos_low, pos_high)

    # -- batched selects -------------------------------------------------

    @_synchronized
    def begin_select_batch(
        self, bounds: list[tuple[Key, Key]]
    ) -> CrackSelectBatch:
        """Physically crack a whole window of range selects in one pass.

        ``bounds`` are the window's ranges, normalised into the
        column's domain (a window replays its empty ranges without the
        index).  Every bound is first looked up in the piece map's
        ``cut_of``; :meth:`_crack_pass` cuts the *fresh* bounds --
        those not yet a pivot -- now, silently, and a window with none
        (a converged window) skips the pass.  The returned
        :class:`~repro.cracking.batch.CrackSelectBatch` replays the
        accounting query by query, reproducing sequential
        :meth:`select_range` charges, timestamps and tape counts
        exactly; it reads a cut position only for a fresh bound.  The
        caller must drive one ``replay`` per window entry, in order,
        before issuing other operations on this index.

        Raises:
            QueryError: if any range is inverted.
        """
        # A fully-replayed previous window leaves its shadow map equal
        # to the real map; reuse it when nothing else has mutated the
        # map since (version check), saving the O(pieces) snapshot.
        cached = self._replay_cache
        if (
            cached is not None
            and cached[0] == self._pieces.version
            and cached[1].is_complete
        ):
            sim = cached[1].sim
        else:
            sim = self._pieces.copy()
        # One scan checks every range and collects the fresh bounds
        # (a top is never a pivot), before the cache is touched.
        cut_of = self._pieces.cut_of
        largest = self._largest
        fresh = []
        for low, high in bounds:
            if not low < high:
                raise QueryError(f"range inverted: low={low} > high={high}")
            if low not in cut_of:
                fresh.append(low)
            if high <= largest and high not in cut_of:
                fresh.append(high)
        self._replay_cache = None
        copy_charged = self._copy_charged
        if fresh:
            self._crack_pass(np.array(fresh, dtype=self._pieces.dtype))
        context = CrackSelectBatch(self, sim, copy_charged, len(bounds))
        self._replay_cache = (self._pieces.version, context)
        return context

    @_synchronized
    def crack_bounds_batch(self, bounds: list[tuple[Key, Key]]) -> None:
        """Silently crack a window's bounds.

        The physical half of a cross-session serving window: the pass
        of :meth:`begin_select_batch` without a replay context.  Each
        client lane's :class:`~repro.cracking.batch.DetachedCrackReplay`
        of the column accounts for it in that lane's window loop and
        reads every bound's position from the piece map's ``cut_of``.

        Raises:
            QueryError: if any range is inverted.
        """
        values = self._window_bounds(bounds)
        if len(values):
            self._crack_pass(values)

    def _window_bounds(self, bounds: list[tuple[Key, Key]]) -> np.ndarray:
        """Every bound a window's physical pass must see cut, in the
        column's dtype.  A top is left out -- the end of the column is
        no pivot -- and duplicates stay: ``locate_many`` tolerates them,
        and a fully-warm window then skips the unique-sort (only fresh
        values get deduped).

        Raises:
            QueryError: if a range is not ascending.
        """
        self._check_ascending(bounds)
        values = [low for low, _ in bounds]
        values += [high for _, high in bounds if high <= self._largest]
        return np.array(values, dtype=self._pieces.dtype)

    @staticmethod
    def _check_ascending(bounds: list[tuple[Key, Key]]) -> None:
        """Raise :class:`QueryError` unless every range is ascending."""
        for low, high in bounds:
            if not low < high:
                raise QueryError(f"range inverted: low={low} > high={high}")

    def _crack_pass(self, values: np.ndarray) -> "CrackPass":
        """Crack at every fresh value in ``values``, silently.

        Caller holds the lock; ``values`` are keys in the column's
        dtype and may repeat.  The index's one physical multi-pivot
        pass: one :meth:`PieceMap.locate_many` classifies every value,
        the fresh ones are grouped by piece, one ``crack_spans_batch``
        partitions the pieces taking one or two pivots and
        ``crack_multi`` the denser ones, and one
        :meth:`PieceMap.insert_cracks_bulk` splice records every cut.
        Nothing is charged or logged; the first crack marks the base
        copy as made, and the record says so (the caller's accounting
        charges it).
        """
        pieces = self._pieces
        indices, starts, ends, at_pivot = pieces.locate_many(values)
        fresh_at = np.flatnonzero(~at_pivot)
        if not len(fresh_at):
            return CrackPass([], [], [], [])
        fresh_values, first = np.unique(values[fresh_at], return_index=True)
        fresh_at = fresh_at[first]
        fresh_pieces = indices[fresh_at]
        fresh_starts = starts[fresh_at].tolist()
        fresh_ends = ends[fresh_at].tolist()
        # Pieces are value-ordered, so value-sorted fresh cracks have
        # non-decreasing piece indices; group boundaries come from one
        # diff instead of a Python dict of lists.
        cut_points = np.flatnonzero(np.diff(fresh_pieces)) + 1
        group_bounds = [0, *cut_points.tolist(), len(fresh_values)]
        copied = not self._copy_charged
        self._copy_charged = True
        fresh_positions = np.empty(len(fresh_values), dtype=np.int64)
        fresh_list = fresh_values.tolist()
        span_slots: list[tuple[int, int]] = []
        span_tasks: list[tuple[int, int, Key, Key]] = []
        for g in range(len(group_bounds) - 1):
            lo, hi = group_bounds[g], group_bounds[g + 1]
            start, end = fresh_starts[lo], fresh_ends[lo]
            if hi - lo <= 2:
                span_slots.append((lo, hi - 1))
                span_tasks.append(
                    (start, end, fresh_list[lo], fresh_list[hi - 1])
                )
            else:
                splits = crack_multi(
                    self._array,
                    start,
                    end,
                    fresh_list[lo:hi],
                    scratch=self._scratch,
                )
                fresh_positions[lo:hi] = splits
        if span_tasks:
            # Pieces taking one pivot or one query's bound pair --
            # the bulk of a converged window.
            span_splits = crack_spans_batch(
                self._array, span_tasks, scratch=self._scratch, validate=False
            )
            for (lo, last), (low, high) in zip(span_slots, span_splits):
                fresh_positions[lo] = low
                fresh_positions[last] = high
        pieces.insert_cracks_bulk(fresh_values, fresh_positions)
        return CrackPass(
            fresh_list, fresh_pieces.tolist(), fresh_starts, fresh_ends,
            copied,
        )

    # -- update support --------------------------------------------------

    @_synchronized
    def ensure_values_fit(self, values: np.ndarray) -> None:
        """Widen a narrowed cracker column if ``values`` overflow it.

        Update merging calls this before casting incoming values to the
        cracker dtype: a narrowed (int32) column is transparently
        widened back to the base column's int64 when out-of-range
        values arrive, so narrowing never corrupts merges.
        """
        if self._array.dtype != np.int32 or len(values) == 0:
            return
        values = np.asarray(values)
        low = values.min()
        high = values.max()
        if low < _INT32_MIN or high > _INT32_MAX:
            self._array = self._array.astype(np.int64)

    # -- auxiliary refinement actions (holistic tuning) ------------------

    @_synchronized
    def random_crack(
        self,
        rng: np.random.Generator,
        min_piece_size: int = 2,
    ) -> int | None:
        """Apply one random crack action (paper §3).

        Picks a uniform random value within the column's value range
        and cracks there.  Returns the cut position, or ``None`` when
        the action degenerated (value already a pivot, or the target
        piece is already at/below ``min_piece_size``).
        """
        if self.row_count == 0:
            return None
        stats = self.column.stats
        if stats.value_span <= 0:
            return None
        value = self._pivot_key(
            rng.uniform(stats.min_value, stats.max_value)
        )
        index, start, end, at_pivot = self._pieces.locate(value)
        if at_pivot:
            return None
        if end - start <= min_piece_size:
            return None
        self._charge_copy_if_needed()
        return self._cut_located(
            value, index, start, end, at_pivot, CrackOrigin.TUNING
        )

    @_synchronized
    def crack_largest_piece(
        self,
        rng: np.random.Generator,
        min_piece_size: int = 2,
    ) -> int | None:
        """Crack the largest piece at one of its elements.

        A data-driven refinement (in the spirit of stochastic
        cracking's DDC/DDR [10]): pivoting on an actual element
        guarantees progress even under skew.  Returns the cut position
        or ``None`` if no piece is large enough.
        """
        piece = self._pieces.largest_piece()
        if piece.size <= min_piece_size:
            return None
        offset = int(rng.integers(piece.start, piece.end))
        value = self._array.item(offset)
        if self._pieces.has_pivot(value):
            return None
        return self.ensure_cut(value, CrackOrigin.TUNING)

    @_synchronized
    def sort_piece_at(self, piece_index: int) -> Piece:
        """Fully sort one piece.  The piece map records nothing: a
        sorted piece is still a piece, cracked like any other.

        Raises:
            CrackerError: if the index is out of range.
        """
        piece = self._pieces.piece_at_index(piece_index)
        self._charge_copy_if_needed()
        sort_piece(self._array, piece.start, piece.end)
        # A piece of one row is already sorted: no piece is touched.
        self.clock.charge_sort(piece.size, int(piece.size > 1))
        self.tape.log(CrackOrigin.SORT)
        return piece

    # -- validation ------------------------------------------------------

    @_synchronized
    def rebuild(self) -> None:
        """Reset to a fresh, trivially-valid single-piece state.

        The recovery path of last resort: when a crashed tuning action
        leaves the physical partitioning inconsistent with the piece
        map (:meth:`check_invariants` fails), the supervisor re-copies
        the base column and starts over from one piece.  All
        refinement on this column is lost -- cracking will re-converge
        from queries -- but every answer is correct immediately.  The
        copy is charged to the clock like any first-touch
        materialization.
        """
        self._array = self._materialize_values(self.column)
        rows = self.column.row_count
        self._pieces = PieceMap(rows, dtype=self._pieces.dtype)
        self._scratch = CrackScratch()
        self._replay_cache = None
        if rows:
            self.clock.charge_materialize(rows)

    @_synchronized
    def check_invariants(self) -> None:
        """Verify the physical partitioning matches the piece map.

        O(n); used by tests and the property-based suite, never on the
        hot path.  Takes the monitor lock like every other structural
        reader: a crack shifts the piece map's tail before it writes
        the new slot, so an unlocked check beside a tuning worker sees
        a duplicated pivot and reports corruption that is not there.

        Raises:
            CrackerError: on any violation.
        """
        self._pieces.check_invariants()
        for piece in self._pieces.pieces():
            chunk = self._array[piece.start : piece.end]
            if len(chunk) == 0:
                continue
            if piece.low != -math.inf and chunk.min() < piece.low:
                raise CrackerError(
                    f"{piece} contains value {chunk.min()} below its "
                    "lower bound"
                )
            if piece.high != math.inf and chunk.max() >= piece.high:
                raise CrackerError(
                    f"{piece} contains value {chunk.max()} at/above its "
                    "upper bound"
                )

    def __repr__(self) -> str:
        return (
            f"CrackerIndex({self.column.name!r}, rows={self.row_count}, "
            f"pieces={self.piece_count})"
        )
