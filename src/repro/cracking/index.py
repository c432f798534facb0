"""The cracker index: a self-organizing partial index on one column.

This reproduces MonetDB's database-cracking module [12], the substrate
the paper's holistic prototype was hand-tuned from.  The index owns a
physical copy of the column (the *cracker column*), an optional aligned
row-id array (the cracker map, enabling tuple reconstruction as in
sideways cracking [13]), and a :class:`PieceMap` of crack boundaries.

Range selects crack the pieces containing the query bounds and return a
contiguous :class:`RangeView` -- each query refines the index a little,
each refinement is priced through the shared clock and logged on the
:class:`CrackTape`.

Auxiliary refinements -- the extra, non-query-driven cracks holistic
indexing injects during idle time -- use the same machinery with
``CrackOrigin.TUNING``.

Hot-path design (ISSUE 3): each index owns a :class:`CrackScratch` the
kernels partition through (all structural operations run under the
index's monitor lock, so one scratch per index suffices); piece
navigation is a single fused :meth:`PieceMap.locate` per crack; and the
cracker column is stored in the narrowest lossless dtype -- an ``int64``
column whose values fit ``int32`` is cracked as ``int32`` (and row ids
as ``int32`` up to 2^31 rows), halving kernel memory traffic.  Splits,
charges, tape contents and reconstructed values are identical either
way; update merging widens the column back if out-of-range values ever
arrive (see :meth:`ensure_values_fit`).
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from repro.cracking.engine import (
    CrackScratch,
    crack_in_three,
    crack_in_two,
    crack_in_two_batch,
    crack_multi,
    crack_spans_batch,
    sort_piece,
    split_sorted_piece,
)
from repro.analysis import witness
from repro.cracking.piece import CrackOrigin, Piece
from repro.cracking.piecemap import PieceMap
from repro.cracking.tape import CrackTape
from repro.errors import CrackerError, QueryError
from repro.simtime.charge import CostCharge
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


class CrackerIndex:
    """A cracked copy of one column, refined by queries and tuning.

    Args:
        column: the base column to index.
        clock: time source charged for every refinement; defaults to a
            private :class:`SimClock` (useful for unit tests).
        track_rowids: maintain the cracker map (base positions aligned
            with cracked values) for tuple reconstruction.
        tape: refinement log to append to; a fresh one by default.
        copy_on_first_touch: when True (default, MonetDB behaviour) the
            cost of copying the base column is charged to the first
            refinement instead of index creation.
        narrow_values: store the cracker column in the narrowest
            lossless integer dtype (default True; disable to force the
            base column's dtype).
    """

    def __init__(
        self,
        column: Column,
        clock: Clock | None = None,
        track_rowids: bool = False,
        tape: CrackTape | None = None,
        copy_on_first_touch: bool = True,
        narrow_values: bool = True,
    ) -> None:
        self.column = column
        self.clock: Clock = clock if clock is not None else SimClock()
        #: Monitor lock: every structural read-modify-write on the
        #: cracker column and piece map runs under it, making the index
        #: safe to share between tuning worker threads and foreground
        #: queries.  Reentrant because select_range calls ensure_cut.
        #: Piece-level concurrency semantics live one layer up, in
        #: :class:`repro.cracking.concurrency.PieceLatchTable`.
        self.lock = threading.RLock()
        self._array = self._materialize_values(column, narrow_values)
        rows = column.row_count
        self._rowids = (
            np.arange(
                rows,
                dtype=np.int32 if rows <= _INT32_MAX else np.int64,
            )
            if track_rowids
            else None
        )
        self._pieces = PieceMap(rows, dtype=column.ctype.numpy_dtype)
        #: Range bounds above this run to the end of the column.
        self._largest = largest(column.ctype.numpy_dtype)
        self._scratch = CrackScratch()
        #: (piece-map version, last batch context) -- lets consecutive
        #: windows reuse the replay shadow map (see begin_select_batch).
        self._replay_cache: tuple[int, object] | None = None
        #: Shared warm-path result views for batched selects, keyed by
        #: (pos_low, pos_high); valid for one physical array/rowids
        #: generation (cut positions never move under pure cracking).
        self._span_views: dict[tuple[int, int], object] = {}
        # Strong references (not ids -- those can be recycled) to the
        # arrays the cached views slice.
        self._span_views_arrays = (self._array, self._rowids)
        self.tape = tape if tape is not None else CrackTape()
        self._copy_charged = not copy_on_first_touch
        if not copy_on_first_touch and rows:
            self.clock.charge(CostCharge(elements_materialized=rows))

    @classmethod
    def from_state(
        cls,
        column: Column,
        values: np.ndarray,
        rowids: np.ndarray | None,
        piece_map: PieceMap,
        clock: Clock | None = None,
        tape: CrackTape | None = None,
        copy_charged: bool = True,
    ) -> "CrackerIndex":
        """Rebuild an index around restored buffers (snapshot restore).

        ``values``/``rowids`` are adopted as-is -- typically ``np.memmap``
        views in copy-on-write mode, so restoring is O(metadata) and
        later cracks fault pages in lazily.  The narrowing decision
        (int32 cracker column / rowids) was made when the snapshot was
        written and rides along in the array dtypes.  ``copy_charged``
        preserves whether the base-copy materialization charge was
        already paid (it is part of the restored clock totals).

        Raises:
            CrackerError: when the buffers disagree with the column or
                piece map.
        """
        if len(values) != column.row_count:
            raise CrackerError(
                f"cracker column has {len(values)} rows, base column "
                f"{column.row_count}"
            )
        if piece_map.row_count != len(values):
            raise CrackerError(
                f"piece map covers {piece_map.row_count} rows, cracker "
                f"column {len(values)}"
            )
        if rowids is not None and len(rowids) != len(values):
            raise CrackerError(
                f"cracker map has {len(rowids)} rows, cracker column "
                f"{len(values)}"
            )
        index = cls.__new__(cls)
        index.column = column
        index.clock = clock if clock is not None else SimClock()
        index.lock = threading.RLock()
        index._array = values
        index._rowids = rowids
        index._pieces = piece_map
        index._largest = largest(column.ctype.numpy_dtype)
        index._scratch = CrackScratch()
        index._replay_cache = None
        index._span_views = {}
        index._span_views_arrays = (values, rowids)
        index.tape = tape if tape is not None else CrackTape()
        index._copy_charged = copy_charged
        return index

    @staticmethod
    def _materialize_values(
        column: Column, narrow_values: bool
    ) -> np.ndarray:
        """Copy the column, narrowed to int32 when lossless."""
        values = column.values
        if (
            narrow_values
            and values.dtype == np.int64
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
    def rowids(self) -> np.ndarray | None:
        """The cracker map, if row ids are tracked."""
        return self._rowids

    @property
    def piece_map(self) -> PieceMap:
        return self._pieces

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

    def max_piece_size(self) -> int:
        return self._pieces.max_piece_size()

    def is_refined_to(self, target_piece_size: int) -> bool:
        """True when every piece is at most ``target_piece_size`` rows.

        The paper's stopping criterion: once pieces fit in the CPU
        cache, further refinement stops paying off.
        """
        return self.max_piece_size() <= max(1, target_piece_size)

    def remaining_cracks_estimate(self, target_piece_size: int) -> float:
        """Estimated refinements still useful before cache-fit.

        Splitting halves the average piece, so the distance from
        optimal is ~``pieces * log2(avg / target)`` -- the quantity the
        holistic ranking scheme keeps per column (paper §3, Modeling).
        """
        target = max(1, target_piece_size)
        avg = self.average_piece_size()
        if avg <= target:
            return 0.0
        return self.piece_count * math.log2(avg / target)

    # -- core refinement -----------------------------------------------

    def _charge_copy_if_needed(self) -> None:
        if self._copy_charged:
            return
        self._copy_charged = True
        if self.row_count:
            self.clock.charge(
                CostCharge(elements_materialized=self.row_count)
            )

    def _charge_pivot_hits(self, count: int) -> None:
        """Price ``count`` piece-map probes that found their value
        already a cut: one binary search over the pieces each."""
        clock = self.clock
        if isinstance(clock, SimClock):
            clock.charge_probes(self.piece_count, count)
        else:
            for _ in range(count):
                clock.charge(CostCharge.for_binary_search(self.piece_count))

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
        is_sorted: bool,
        at_pivot: bool,
        origin: CrackOrigin,
    ) -> int:
        """Crack at an already-located ``value``; caller holds the lock.

        ``index``/``start``/``end``/``is_sorted``/``at_pivot`` come
        from :meth:`PieceMap.locate` with no intervening mutation.
        """
        if at_pivot:
            self._charge_pivot_hits(1)
            return start
        self._charge_copy_if_needed()
        if is_sorted:
            position, charge = split_sorted_piece(
                self._array, start, end, value
            )
        else:
            position, charge = crack_in_two(
                self._array,
                start,
                end,
                value,
                self._rowids,
                self._scratch,
            )
        self._pieces.add_crack_at(index, value, position)
        self.clock.charge(charge)
        self.tape.log(
            self.clock.now(), origin, value, position, end - start
        )
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
        index, start, end, is_sorted, at_pivot = self._pieces.locate(value)
        if not at_pivot:
            witness.mutation_check(self, (start,), "ensure_cut")
        return self._cut_located(
            value, index, start, end, is_sorted, at_pivot, origin
        )

    def _locate_fresh(
        self, values: list[Key]
    ) -> tuple[dict[Key, int], dict[int, list[Key]]]:
        """Split ``values`` into known pivots and fresh cracks.

        Caller holds the lock.  Returns ``(positions, by_piece)``:
        ``positions`` maps every distinct value to its cut position
        (``-1`` for values still to be cracked), ``by_piece`` groups
        the fresh values -- sorted ascending -- by containing piece
        index.
        """
        pieces = self._pieces
        positions: dict[Key, int] = {}
        fresh: list[Key] = []
        fresh_piece: dict[Key, int] = {}
        for value in values:
            if value in positions:
                continue
            index, start, _, _, at_pivot = pieces.locate(value)
            if at_pivot:
                positions[value] = start
            else:
                positions[value] = -1
                fresh.append(value)
                fresh_piece[value] = index
        by_piece: dict[int, list[Key]] = {}
        if fresh:
            fresh.sort()
            for value in fresh:
                by_piece.setdefault(fresh_piece[value], []).append(value)
        return positions, by_piece

    @_synchronized
    def ensure_cuts(
        self,
        values: list[object],
        origin: CrackOrigin = CrackOrigin.TUNING,
    ) -> list[int]:
        """Crack at many values in one go (paper §3's batch question).

        New pivots are grouped by containing piece; unsorted pieces
        receiving two or more get a single counting-partition pass
        (:func:`crack_multi`), unsorted pieces receiving exactly one
        are partitioned by one :func:`crack_in_two_batch` call, and
        sorted pieces take all their cuts via one vectorized
        ``np.searchsorted`` call.  Charges and tape records are
        identical to sequential :meth:`ensure_cut` calls.  Returns the
        cut position of every requested value (normalised as there), in
        input order.
        """
        pieces = self._pieces
        values = [self._pivot_key(value) for value in values]
        positions, by_piece = self._locate_fresh(values)
        if by_piece:
            witness.mutation_check(
                self,
                lambda: [
                    pieces.piece_at_index(i).start for i in by_piece
                ],
                "ensure_cuts",
            )
            self._charge_copy_if_needed()
            # Physically partition every single-pivot unsorted piece in
            # one batched kernel call.  The pieces are pairwise
            # disjoint, so this commutes with the sweep below, which
            # performs all accounting (and the remaining physical work)
            # in the original right-to-left piece order -- keeping
            # charges, timestamps and tape records byte-identical to
            # sequential processing.
            sweep = sorted(by_piece, reverse=True)
            batch_members: list[int] = []
            batch_tasks: list[tuple[int, int, Key]] = []
            for piece_index in sweep:
                group = by_piece[piece_index]
                if len(group) == 1 and not pieces.is_piece_sorted(
                    piece_index
                ):
                    piece = pieces.piece_at_index(piece_index)
                    batch_members.append(piece_index)
                    batch_tasks.append((piece.start, piece.end, group[0]))
            batch_splits: dict[int, tuple[int, CostCharge]] = {}
            if batch_tasks:
                splits, charges = crack_in_two_batch(
                    self._array,
                    batch_tasks,
                    self._rowids,
                    self._scratch,
                )
                for piece_index, split, charge in zip(
                    batch_members, splits, charges
                ):
                    batch_splits[piece_index] = (split, charge)
            for piece_index in sweep:
                group = by_piece[piece_index]
                if piece_index in batch_splits:
                    value = group[0]
                    split, charge = batch_splits[piece_index]
                    piece = pieces.piece_at_index(piece_index)
                    pieces.add_crack(value, split)
                    self.clock.charge(charge)
                    self.tape.log(
                        self.clock.now(), origin, value, split, piece.size
                    )
                    positions[value] = split
                    continue
                piece = pieces.piece_at_index(piece_index)
                if piece.is_sorted:
                    self._cuts_in_sorted_piece(
                        piece, group, positions, origin
                    )
                    continue
                splits, charge = crack_multi(
                    self._array,
                    piece.start,
                    piece.end,
                    group,
                    self._rowids,
                    self._scratch,
                )
                self.clock.charge(charge)
                now = self.clock.now()
                for value, split in zip(group, splits):
                    pieces.add_crack(value, split)
                    positions[value] = split
                    self.tape.log(now, origin, value, split, piece.size)
        return [positions[value] for value in values]

    def _cuts_in_sorted_piece(
        self,
        piece: Piece,
        group: list[Key],
        positions: dict[Key, int],
        origin: CrackOrigin,
    ) -> None:
        """All cuts of one sorted piece via a single vectorized search.

        A sorted piece needs no data movement: every pivot's position
        comes from one ``np.searchsorted`` over the piece.  Charges and
        tape records replicate sequential :meth:`ensure_cut` calls
        exactly -- each successive cut binary-searches the shrinking
        remainder ``[previous_cut, end)``, so the i-th charge prices a
        search over that remainder, not the whole piece.
        """
        offsets = self._array[piece.start : piece.end].searchsorted(group)
        previous = piece.start
        for value, offset in zip(group, offsets):
            position = piece.start + int(offset)
            self._pieces.add_crack(value, position)
            self.clock.charge(
                CostCharge.for_binary_search(max(1, piece.end - previous))
            )
            self.tape.log(
                self.clock.now(),
                origin,
                value,
                position,
                piece.end - previous,
            )
            positions[value] = position
            previous = position

    @_synchronized
    def select_range(
        self,
        low: object,
        high: object,
        origin: CrackOrigin = CrackOrigin.QUERY,
    ) -> RangeView:
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
            return RangeView(self._array, 0, 0, self._rowids)
        return self.select_keys(*bounds, origin)

    @_synchronized
    def select_keys(
        self,
        low: Key,
        high: Key,
        origin: CrackOrigin = CrackOrigin.QUERY,
    ) -> RangeView:
        """:meth:`select_range` of a range already normalised into the
        column's domain (``low < high``) -- what a session passes.

        When both bounds fall in the same unsorted piece a single
        crack-in-three pass handles them together (one pass instead of
        two), exactly as MonetDB's select operator does.  A ``high``
        past the column's top cuts at ``low`` only: the range runs to
        the end of the column.
        """
        if high > self._largest:
            return RangeView(
                self._array,
                self.ensure_cut(low, origin),
                len(self._array),
                self._rowids,
            )
        pieces = self._pieces
        low_loc, high_loc = pieces.locate_pair(low, high)
        witness.mutation_check(
            self,
            lambda: [loc[1] for loc in (low_loc, high_loc) if not loc[4]],
            "select_range",
        )
        low_index, start, end, low_sorted, low_pivot = low_loc
        high_pivot = high_loc[4]
        if (
            low_index == high_loc[0]
            and not low_pivot
            and not high_pivot
            and not low_sorted
            and end > start
        ):
            self._charge_copy_if_needed()
            pos_low, pos_high, charge = crack_in_three(
                self._array,
                start,
                end,
                low,
                high,
                self._rowids,
                self._scratch,
            )
            pieces.add_crack_at(low_index, low, pos_low)
            pieces.add_crack_at(low_index + 1, high, pos_high)
            self.clock.charge(charge)
            now = self.clock.now()
            size = end - start
            self.tape.log(now, origin, low, pos_low, size)
            self.tape.log(now, origin, high, pos_high, size)
        elif low_pivot and high_pivot:
            # The converged select: nothing to crack, two probe charges.
            self._charge_pivot_hits(2)
            pos_low, pos_high = start, high_loc[1]
        else:
            pos_low = self._cut_located(low, *low_loc, origin)
            if not low_pivot:
                # The low step inserted a cut: high's piece has moved.
                high_loc = pieces.locate(high)
            pos_high = self._cut_located(high, *high_loc, origin)
        return RangeView(self._array, pos_low, pos_high, self._rowids)

    # -- batched selects (ISSUE 4) ---------------------------------------

    @_synchronized
    def begin_select_batch(
        self,
        bounds: list[tuple[Key, Key]],
        origin: CrackOrigin = CrackOrigin.QUERY,
    ):
        """Physically crack a whole window of range selects in one pass.

        ``bounds`` are the window's ranges, normalised into the
        column's domain (:func:`~repro.storage.dtypes.normalise_range`;
        a window replays its empty ranges without the index).  Every
        bound is cracked immediately -- grouped by
        piece, with one kernel pass per piece -- but **nothing is
        charged or logged**; the returned
        :class:`~repro.cracking.batch.CrackSelectBatch` replays the
        accounting query by query, reproducing sequential
        :meth:`select_range` charges, timestamps and tape records
        exactly.  The caller must drive one ``replay`` per window
        entry, in order, before issuing other operations on this
        index.

        Raises:
            QueryError: if any range is inverted.
        """
        from repro.cracking.batch import CrackSelectBatch, ReplayPieceMap

        values = self._window_bounds(bounds)
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
            sim = ReplayPieceMap.snapshot(self._pieces)
        self._replay_cache = None
        cached_arrays = self._span_views_arrays
        if (
            cached_arrays[0] is not self._array
            or cached_arrays[1] is not self._rowids
        ):
            # Update merges / widening replaced the physical arrays:
            # cut positions may have shifted, cached views are stale.
            self._span_views = {}
            self._span_views_arrays = (self._array, self._rowids)
        copy_charged = self._copy_charged
        positions = self._crack_values_silent(values)
        context = CrackSelectBatch(
            self, sim, positions, copy_charged, origin, len(bounds)
        )
        self._replay_cache = (self._pieces.version, context)
        return context

    @_synchronized
    def crack_bounds_batch(
        self, bounds: list[tuple[Key, Key]]
    ) -> dict[Key, int]:
        """Silently crack a window's bounds; return every cut position.

        The re-entrant physical half of a cross-session serving window
        (ISSUE 5).  Like :meth:`begin_select_batch` it cracks every
        fresh bound in one grouped pass with **no** clock or tape side
        effects, but it constructs no replay context -- accounting is
        driven externally, by per-client
        :class:`~repro.cracking.batch.DetachedCrackReplay` shadows --
        and the returned mapping covers **every** distinct bound,
        including values that were already pivots: a bound warm in the
        shared physical index can still be fresh in a client's shadow
        map, whose replay then needs its (order-independent) position.

        Raises:
            QueryError: if any range is inverted.
        """
        values = self._window_bounds(bounds)
        if len(values) == 0:
            return {}
        # A bound that is already a pivot answers from this one locate:
        # cracking the fresh bounds moves no existing cut.
        _, starts, _, _, at_pivot = self._pieces.locate_many(values)
        positions = dict(
            zip(values[at_pivot].tolist(), starts[at_pivot].tolist())
        )
        if not at_pivot.all():
            positions.update(self._crack_values_silent(values))
        return positions

    def _window_bounds(self, bounds: list[tuple[Key, Key]]) -> np.ndarray:
        """Every bound a window's physical pass must see cut, in the
        column's dtype.  A top is left out -- the end of the column is
        no pivot -- and duplicates stay: ``locate_many`` tolerates them,
        and a fully-warm window then skips the unique-sort (only fresh
        values get deduped).

        Raises:
            QueryError: if a range is not ascending.
        """
        values = [low for low, _ in bounds]
        for low, high in bounds:
            if not low < high:
                raise QueryError(f"range inverted: low={low} > high={high}")
            if high <= self._largest:
                values.append(high)
        return np.array(values, dtype=self._pieces.dtype)

    def _crack_values_silent(
        self, values: np.ndarray
    ) -> dict[Key, int]:
        """Crack at every fresh value with no clock/tape side effects.

        Caller holds the lock; ``values`` may repeat (the window's raw
        bound list).  The physical half of a batched select, fully
        vectorized: one :meth:`PieceMap.locate_many` classifies every
        value, shared kernel dispatches partition the data
        (``crack_spans_batch`` for pieces taking one pivot or one
        query's bound pair, ``crack_multi`` for denser pieces,
        ``searchsorted`` for sorted ones), and one
        :meth:`PieceMap.insert_cracks_bulk` splice records every new
        cut.  All accounting is left to the replay.  Returns the cut
        position of every *fresh* value (existing pivots answer their
        replays from the shadow map directly).
        """
        pieces = self._pieces
        _, _, _, _, at_pivot = pieces.locate_many(values)
        positions: dict[Key, int] = {}
        fresh_mask = ~at_pivot
        if not np.any(fresh_mask):
            return positions
        # Batched passes crack many pieces across the whole column, so
        # their concurrency contract is the table-level exclusive latch
        # (what the serving front-end holds), not per-piece latches.
        witness.mutation_check(self, None, "batched crack pass")
        # The replay emits the one-off copy charge at its first crack
        # event, exactly where sequential execution would have; the
        # flag flips here so later foreground cracks do not re-charge.
        self._copy_charged = True
        fresh_values = np.unique(values[fresh_mask])
        fresh_pieces, f_starts, f_ends, f_flags, _ = pieces.locate_many(
            fresh_values
        )
        fresh_starts = f_starts.tolist()
        fresh_ends = f_ends.tolist()
        fresh_sorted = f_flags.tolist()
        # Pieces are value-ordered, so value-sorted fresh cracks have
        # non-decreasing piece indices; group boundaries come from one
        # diff instead of a Python dict of lists.
        cut_points = np.flatnonzero(np.diff(fresh_pieces)) + 1
        group_bounds = [0, *cut_points.tolist(), len(fresh_values)]
        fresh_positions = np.empty(len(fresh_values), dtype=np.int64)
        fresh_list = fresh_values.tolist()
        span_slots: list[int] = []
        span_pairs: list[bool] = []
        span_tasks: list[tuple[int, int, Key, Key]] = []
        for g in range(len(group_bounds) - 1):
            lo, hi = group_bounds[g], group_bounds[g + 1]
            start, end = fresh_starts[lo], fresh_ends[lo]
            if fresh_sorted[lo]:
                fresh_positions[lo:hi] = start + self._array[
                    start:end
                ].searchsorted(fresh_values[lo:hi])
            elif hi - lo == 1:
                span_slots.append(lo)
                span_pairs.append(False)
                value = fresh_list[lo]
                span_tasks.append((start, end, value, value))
            elif hi - lo == 2:
                span_slots.append(lo)
                span_pairs.append(True)
                span_tasks.append(
                    (start, end, fresh_list[lo], fresh_list[lo + 1])
                )
            else:
                splits, _charge = crack_multi(
                    self._array,
                    start,
                    end,
                    fresh_list[lo:hi],
                    self._rowids,
                    self._scratch,
                )
                fresh_positions[lo:hi] = splits
        if span_tasks:
            # Pieces taking one pivot or one query's bound pair --
            # the bulk of a converged window.
            span_splits = crack_spans_batch(
                self._array,
                span_tasks,
                self._rowids,
                self._scratch,
                validate=False,
            )
            for lo, pair, (pos_low, pos_high) in zip(
                span_slots, span_pairs, span_splits
            ):
                fresh_positions[lo] = pos_low
                if pair:
                    fresh_positions[lo + 1] = pos_high
        pieces.insert_cracks_bulk(fresh_values, fresh_positions)
        for value, position in zip(fresh_list, fresh_positions.tolist()):
            positions[value] = position
        return positions

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
        origin: CrackOrigin = CrackOrigin.TUNING,
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
        location = self._pieces.locate(value)
        index, start, end, is_sorted, at_pivot = location
        if at_pivot:
            return None
        if end - start <= min_piece_size:
            return None
        witness.mutation_check(self, (start,), "random_crack")
        return self._cut_located(
            value, index, start, end, is_sorted, at_pivot, origin
        )

    @_synchronized
    def crack_largest_piece(
        self,
        rng: np.random.Generator,
        origin: CrackOrigin = CrackOrigin.TUNING,
        min_piece_size: int = 2,
    ) -> int | None:
        """Crack the largest unsorted piece at one of its elements.

        A data-driven refinement (in the spirit of stochastic
        cracking's DDC/DDR [10]): pivoting on an actual element
        guarantees progress even under skew.  Returns the cut position
        or ``None`` if no piece is large enough.
        """
        piece = self._pieces.largest_unsorted_piece()
        if piece is None or piece.size <= min_piece_size:
            return None
        offset = int(rng.integers(piece.start, piece.end))
        value = self._array.item(offset)
        if self._pieces.has_pivot(value):
            return None
        return self.ensure_cut(value, origin)

    @_synchronized
    def sort_piece_at(self, piece_index: int) -> Piece:
        """Fully sort one piece and mark it sorted.

        Raises:
            CrackerError: if the index is out of range.
        """
        piece = self._pieces.piece_at_index(piece_index)
        if not piece.is_sorted:
            witness.mutation_check(self, (piece.start,), "sort_piece_at")
            self._charge_copy_if_needed()
            charge = sort_piece(
                self._array, piece.start, piece.end, self._rowids
            )
            self.clock.charge(charge)
            self._pieces.mark_sorted(piece_index)
            self.tape.log(
                self.clock.now(),
                CrackOrigin.SORT,
                piece.low,
                piece.start,
                piece.size,
            )
        return self._pieces.piece_at_index(piece_index)

    # -- validation ------------------------------------------------------

    @_synchronized
    def rebuild(self) -> None:
        """Reset to a fresh, trivially-valid single-piece state.

        The recovery path of last resort: when a crashed tuning action
        leaves the physical partitioning inconsistent with the piece
        map (:meth:`check_invariants` fails), the supervisor re-copies
        the base column and starts over from one unsorted piece.  All
        refinement on this column is lost -- cracking will re-converge
        from queries -- but every answer is correct immediately.  The
        copy is charged to the clock like any first-touch
        materialization.
        """
        witness.mutation_check(self, None, "rebuild")
        self._array = self._materialize_values(self.column, True)
        rows = self.column.row_count
        if self._rowids is not None:
            self._rowids = np.arange(
                rows,
                dtype=np.int32 if rows <= _INT32_MAX else np.int64,
            )
        self._pieces = PieceMap(rows, dtype=self._pieces.dtype)
        self._scratch = CrackScratch()
        self._replay_cache = None
        self._span_views = {}
        self._span_views_arrays = (self._array, self._rowids)
        if rows:
            self.clock.charge(CostCharge(elements_materialized=rows))

    @_synchronized
    def check_invariants(self) -> None:
        """Verify the physical partitioning matches the piece map.

        O(n); used by tests and the property-based suite, never on the
        hot path.  Takes the monitor lock like every other structural
        reader: a crack shifts the piece map's tail before it writes
        the new slot, so an unlocked check racing a tuning worker sees
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
            if piece.is_sorted and not np.all(chunk[:-1] <= chunk[1:]):
                raise CrackerError(f"{piece} marked sorted but is not")
        if self._rowids is not None:
            reconstructed = self.column.values[self._rowids]
            if not np.array_equal(reconstructed, self._array):
                raise CrackerError(
                    "cracker map does not reconstruct the cracker column"
                )

    def __repr__(self) -> str:
        return (
            f"CrackerIndex({self.column.name!r}, rows={self.row_count}, "
            f"pieces={self.piece_count})"
        )
