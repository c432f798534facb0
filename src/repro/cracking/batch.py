"""Batched range selects over one cracker index.

The session-loop amortization (ISSUE 4) rests on one property of
cracking: a cut's position is *order independent*.  Cracking at value
``v`` always lands at the number of elements ``< v`` in the column, no
matter how many other cracks happen before or after.  A window of
queries can therefore be executed in two decoupled halves:

* a **physical pass** (:meth:`CrackerIndex.begin_select_batch`) cracks
  every *fresh* bound of the window -- one not yet a pivot of the
  shadow map below -- in one grouped sweep: one shared
  ``crack_spans_batch`` dispatch for pieces taking one pivot or one
  query's bound pair, ``crack_multi`` counting partitions for denser
  pieces, one ``insert_cracks_bulk`` piece-map splice -- touching each
  piece once instead of once per query, with **no** clock or tape side
  effects.  A converged window has no fresh bound and skips the pass;
* an **accounting replay** (:class:`CrackSelectBatch`) that steps
  query by query over a lightweight pure-Python shadow of the
  pre-window piece map (its pivots and cuts), emitting exactly the
  charges and tape records sequential :meth:`CrackerIndex.select_range`
  calls would have produced -- the same crack-in-three fusion, the same
  binary-search charges for pivot hits, the same piece sizes, the same
  timestamps.

Because the replay reproduces the sequential charge stream verbatim,
per-query response times, cumulative clock totals and tape contents
are bit-for-bit identical to one-at-a-time execution; only wall-clock
time changes.  The replay must be bound to a window accountant and
driven to completion, one :meth:`CrackSelectBatch.replay_query` call
per window entry in window order, before the index is used again --
the session's window loop (:meth:`Session.run_window`) is the only
intended caller.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.cracking.piece import CrackOrigin
from repro.errors import CrackerError
from repro.storage.dtypes import Key
from repro.storage.views import RangeView


class ReplayPieceMap:
    """Pure-Python shadow of a :class:`PieceMap` for accounting replay.

    Mirrors :meth:`PieceMap.locate` / :meth:`PieceMap.add_crack_at`
    semantics exactly (bisect on plain lists instead of numpy
    searchsorted -- faster for the one-value lookups the replay makes)
    without ever touching the real map, which the physical pass has
    already advanced to its end-of-window state.
    """

    __slots__ = ("n", "pivots", "cuts")

    def __init__(self, n: int, pivots: list[Key], cuts: list[int]) -> None:
        self.n = n
        self.pivots = pivots
        self.cuts = cuts

    @classmethod
    def snapshot(cls, piece_map) -> "ReplayPieceMap":
        return cls(piece_map.row_count, piece_map.pivots(), piece_map.cuts())

    @property
    def piece_count(self) -> int:
        return len(self.pivots) + 1

    def locate(self, value: Key) -> tuple[int, int, int, bool]:
        """``(piece_index, start, end, at_pivot)``."""
        pivots = self.pivots
        i = bisect_right(pivots, value)
        at_pivot = i > 0 and pivots[i - 1] == value
        cuts = self.cuts
        start = cuts[i - 1] if i > 0 else 0
        end = cuts[i] if i < len(pivots) else self.n
        return i, start, end, at_pivot

    def has_pivot(self, value: Key) -> bool:
        """:meth:`locate`'s ``at_pivot`` alone."""
        pivots = self.pivots
        i = bisect_right(pivots, value)
        return i > 0 and pivots[i - 1] == value

    def add_crack_at(self, i: int, value: Key, position: int) -> None:
        self.pivots.insert(i, value)
        self.cuts.insert(i, position)


class CrackSelectBatch:
    """Replay handle for one column's window of range selects.

    Created by :meth:`CrackerIndex.begin_select_batch` after the
    physical pass; :meth:`replay` must then be called once per window
    entry, in window order.
    """

    __slots__ = (
        "_index",
        "_largest",
        "_values",
        "_sim",
        "_positions",
        "_copy_charged",
        "_origin",
        "_acc",
        "_tape",
        "_expected",
        "_done",
        "_view_cache",
    )

    def __init__(
        self,
        index,
        sim: ReplayPieceMap,
        positions: dict[Key, int],
        copy_charged: bool,
        origin: CrackOrigin,
        expected: int,
        tape=None,
    ) -> None:
        self._index = index
        self._largest = index._largest
        self._values = index.values
        self._sim = sim
        self._positions = positions
        self._copy_charged = copy_charged
        self._origin = origin
        #: The window accountant; callers :meth:`bind` one before the
        #: first replay.
        self._acc = None
        # Detached replays (one client of a shared kernel) log onto
        # their own tape instead of the index's shared one.
        self._tape = tape if tape is not None else index.tape
        self._expected = expected
        self._done = 0
        # Repeated warm predicates (parameterized workloads) resolve
        # to the same [pos_low, pos_high) slice; cut positions are
        # absolute and stable under cracking, and RangeViews are
        # immutable, so identical slices share one view object.  The
        # dict lives on the index (it stays valid across windows) and
        # is reset whenever the cracker column is replaced (update
        # merges, widening, rebuild) -- see CrackerIndex.span_views.
        self._view_cache: dict[tuple[int, int], RangeView] = (
            index.span_views()
        )

    def bind(self, accountant) -> None:
        """Route this context's charges through ``accountant``."""
        self._acc = accountant

    @property
    def is_complete(self) -> bool:
        """Whether every window entry has been replayed.

        A complete replay leaves the shadow map identical to the real
        piece map, which lets the index reuse it for the next window
        instead of re-snapshotting (see
        :meth:`CrackerIndex.begin_select_batch`).
        """
        return self._done >= self._expected

    @property
    def sim(self) -> ReplayPieceMap:
        return self._sim

    def _charge_copy_if_needed(self) -> None:
        if self._copy_charged:
            return
        self._copy_charged = True
        rows = self._index.row_count
        if rows:
            self._acc.charge_materialize(rows)

    def _cut(
        self, value: Key, i: int, start: int, end: int, at_pivot: bool
    ) -> int:
        """Replay of :meth:`CrackerIndex._cut_located` for one bound."""
        acc = self._acc
        if at_pivot:
            acc.charge_binary(self._sim.piece_count)
            return start
        self._charge_copy_if_needed()
        position = self._positions[value]
        self._sim.add_crack_at(i, value, position)
        size = end - start
        if size == 0:
            acc.charge_empty_crack()
        else:
            acc.charge_crack(size, 1)
        self._tape.log(acc.now, self._origin, value, position, size)
        return position

    def replay_query(self, low: Key, high: Key) -> RangeView:
        """Account for one window query; return its result view.

        Owns the whole per-query charge stream: the
        ``CostCharge(queries=1)`` overhead, then :meth:`replay`.
        """
        self._acc.charge_query()
        return self.replay(low, high)

    def replay(self, low: Key, high: Key) -> RangeView:
        """Account for one window query whose per-query overhead the
        caller already charged (the holistic wrapper charges it before
        capturing its monitor timestamp); return its result view.

        ``low``/``high`` are the query's range normalised into the
        column's domain, as :meth:`CrackerIndex.begin_select_batch`
        took them.  The charges and tape records are exactly those a
        sequential :meth:`CrackerIndex.select_keys` would have produced
        at this point of the window, including the crack-in-three
        fusion when both bounds fall into the same piece.  The
        piece lookups inline :meth:`ReplayPieceMap.locate` -- this path
        runs twice per query of every batched window.
        """
        sim = self._sim
        pivots = sim.pivots
        cuts = sim.cuts
        low_index = bisect_right(pivots, low)
        low_pivot = low_index > 0 and pivots[low_index - 1] == low
        high_index = bisect_right(pivots, high)
        high_pivot = high_index > 0 and pivots[high_index - 1] == high
        if low_pivot and high_pivot:
            self._acc.charge_binary_pair(len(pivots) + 1)
            self._done += 1
            span = (
                cuts[low_index - 1] if low_index > 0 else 0,
                cuts[high_index - 1],
            )
            view = self._view_cache.get(span)
            if view is None:
                view = RangeView(self._values, span[0], span[1])
                self._view_cache[span] = view
            return view
        return self._replay_located(
            low, high, low_index, low_pivot, high_index, high_pivot
        )

    def empty(self) -> RangeView:
        """The answer to a window query whose range is empty: no probe,
        no charge, no tape, and no replay slot (the physical pass never
        saw it)."""
        return RangeView(self._values, 0, 0)

    def _replay_located(
        self,
        low: Key,
        high: Key,
        low_index: int,
        low_pivot: bool,
        high_index: int,
        high_pivot: bool,
    ) -> RangeView:
        """The cracking replay for queries with at least one fresh
        bound (charges and tape records replicate sequential
        :meth:`CrackerIndex.select_keys` exactly)."""
        sim = self._sim
        cuts = sim.cuts
        k = len(sim.pivots)
        start = cuts[low_index - 1] if low_index > 0 else 0
        end = cuts[low_index] if low_index < k else sim.n
        if high > self._largest:
            # A top (never a pivot, so it always lands here) is the end
            # of the column, as in select_keys: one cut, at low.
            pos_low = self._cut(low, low_index, start, end, low_pivot)
            pos_high = len(self._values)
        elif (
            low_index == high_index
            and not low_pivot
            and not high_pivot
            and end > start
        ):
            self._charge_copy_if_needed()
            pos_low = self._positions[low]
            pos_high = self._positions[high]
            sim.add_crack_at(low_index, low, pos_low)
            sim.add_crack_at(low_index + 1, high, pos_high)
            size = end - start
            acc = self._acc
            acc.charge_crack(size, 2)
            now = acc.now
            tape_log = self._tape.log
            tape_log(now, self._origin, low, pos_low, size)
            tape_log(now, self._origin, high, pos_high, size)
        else:
            pos_low = self._cut(low, low_index, start, end, low_pivot)
            pos_high = self._cut(high, *sim.locate(high))
        self._done += 1
        return RangeView(self._values, pos_low, pos_high)

    def refresh_arrays(self) -> None:
        """Re-capture the index's physical array and view cache.

        Defensive re-sync for long-lived (detached) replays: result
        views must always slice the index's *current* arrays.  Note
        this does not make replays safe across update merges that
        shift cut positions -- the shadow map and the caller's
        positions would be stale too; serving-eligible strategies
        never merge mid-run (see :mod:`repro.serving`).
        """
        self._values = self._index.values
        self._view_cache = self._index.span_views()

    def check_consistent(self) -> None:
        """Verify the replay converged onto the physical state.

        Debug/test helper: after a full replay the shadow map must
        equal the real (already advanced) piece map.

        Raises:
            CrackerError: when the replay and the physical pass
                disagree -- an accounting bug.
        """
        real = self._index.piece_map
        if self._sim.pivots != real.pivots() or self._sim.cuts != real.cuts():
            raise CrackerError(
                "batched select replay diverged from the physical pass"
            )


class DetachedCrackReplay(CrackSelectBatch):
    """A persistent per-client accounting replay over a shared index.

    The concurrent serving front-end (ISSUE 5) runs many clients
    against **one** physical cracker index: the index accumulates the
    union of every client's (and every tuning worker's) cracks, while
    each client carries a detached replay whose shadow map evolves only
    through that client's own queries -- the exact piece-boundary
    trajectory of the client running *alone* against a fresh index.

    This works because a crack's position is order independent: the cut
    for value ``v`` always lands at the number of elements ``< v``, no
    matter which other cracks -- from other clients, other windows, or
    background tuning -- happen around it.  The physical union therefore
    serves every client's solo piece boundaries, and the replay's
    charges (which depend only on the shadow's piece sizes and the
    order-independent positions) reproduce the solo charge stream
    bit-for-bit.

    Unlike its window-scoped parent, a detached replay

    * never converges onto the physical map (``check_consistent`` does
      not apply);
    * persists across windows: re-``bind`` a fresh accountant per
      window and keep replaying;
    * logs onto its own tape, so each client owns a solo-identical
      crack log;
    * charges its own copy-on-first-touch materialization, like the
      solo index would on the client's first crack;
    * resolves positions from a caller-maintained dict that must cover
      every bound the client queries (the serving front-end feeds it
      from :meth:`CrackerIndex.crack_bounds_batch` each window).
    """

    __slots__ = ()

    @classmethod
    def solo(
        cls,
        index,
        positions: dict[Key, int],
        tape,
        origin: CrackOrigin = CrackOrigin.QUERY,
    ) -> "DetachedCrackReplay":
        """A replay starting from the virgin (uncracked) column state."""
        sim = ReplayPieceMap(index.row_count, [], [])
        return cls(
            index,
            sim,
            positions,
            copy_charged=False,
            origin=origin,
            expected=0,
            tape=tape,
        )

    def bind(self, accountant) -> None:
        super().bind(accountant)
        # Always serve views over the index's current arrays (e.g.
        # after a widening that preserved cut positions).
        self.refresh_arrays()
