"""Batched range selects over one cracker index, for served lanes.

Window execution rests on one property of cracking: a cut's position
is *order independent*.  Cracking at value ``v`` always lands at the
number of elements ``< v`` in the column, no matter how many other
cracks happen before or after.  A served window of many clients'
queries can therefore be executed in two decoupled halves:

* a **physical pass** (:meth:`CrackerIndex.crack_bounds_batch`)
  cracks every *fresh* bound of the window -- one not yet in the
  piece map's ``cut_of`` -- in one grouped sweep: one shared
  ``crack_spans_batch`` dispatch for pieces taking one pivot or one
  query's bound pair, ``crack_multi`` counting partitions for denser
  pieces, one ``insert_cracks_bulk`` piece-map splice -- touching each
  piece once instead of once per query, with **no** clock or tape side
  effects.  A converged window has no fresh bound and skips the pass;
* an **accounting replay** a client lane and column
  (:class:`DetachedCrackReplay`) that steps the lane's reads over its
  own shadow piece map, emitting exactly the charges and tape counts
  the client's sequential :meth:`CrackerIndex.select_keys` calls would
  have produced running alone.  A read whose two bounds are in the
  shadow's ``cut_of`` is priced in one step; only a read with a fresh
  bound is bisected and replayed crack by crack -- the same
  crack-in-three fusion, the same piece sizes.

Because the replay emits the sequential charges and virtual time is
an integer sum, per-query response times, cumulative clock totals and
tape counts equal one-at-a-time execution's; only wall-clock time
changes.  The replay must be bound to the clock it charges and driven
one :meth:`CrackSelectBatch.replay_query` call per window entry in
window order; the served lane's window loop
(:meth:`Session.run_window`) is the only intended caller.  A session
window does not replay: :meth:`Session.run_batch` answers each read
with the sequential select.  :meth:`CrackerIndex.begin_select_batch`
(one pass plus a :class:`CrackSelectBatch` over a
:meth:`PieceMap.copy` of the pre-window map) has no caller outside
the tests and ``perfbench``'s trace list.
"""

from __future__ import annotations

from repro.cracking.piece import CrackOrigin
from repro.cracking.piecemap import PieceMap
from repro.errors import CrackerError
from repro.storage.dtypes import Key
from repro.storage.views import RangeView


class CrackSelectBatch:
    """Replay handle for one column's window of range selects.

    Created by :meth:`CrackerIndex.begin_select_batch` after the
    physical pass; :meth:`replay_query` must then be called once per
    window entry, in window order.
    """

    __slots__ = (
        "_index",
        "_largest",
        "_values",
        "sim",
        "_positions",
        "_copy_charged",
        "_clock",
        "_tape",
        "_expected",
        "_done",
        "_view_cache",
    )

    def __init__(
        self,
        index,
        sim: PieceMap,
        copy_charged: bool,
        expected: int,
        tape=None,
    ) -> None:
        self._index = index
        self._largest = index._largest
        #: The shadow map this replay steps.
        self.sim = sim
        self._copy_charged = copy_charged
        #: The clock charged; callers :meth:`bind` one before the
        #: first replay.
        self._clock = None
        # Detached replays (one client of a shared kernel) count onto
        # their own tape instead of the index's shared one.
        self._tape = tape if tape is not None else index.tape
        self._expected = expected
        self._done = 0
        self.refresh_arrays()

    def bind(self, clock) -> None:
        """Charge this context's events to ``clock``."""
        self._clock = clock

    @property
    def is_complete(self) -> bool:
        """Whether every window entry has been replayed.

        A complete replay leaves the shadow map identical to the real
        piece map, which lets the index reuse it for the next window
        instead of re-snapshotting (see
        :meth:`CrackerIndex.begin_select_batch`).
        """
        return self._done >= self._expected

    def _charge_copy_if_needed(self) -> None:
        if self._copy_charged:
            return
        self._copy_charged = True
        rows = self._index.row_count
        if rows:
            self._clock.charge_materialize(rows)

    def _cut(
        self, value: Key, i: int, start: int, end: int, at_pivot: bool
    ) -> int:
        """Replay of :meth:`CrackerIndex._cut_located` for one bound;
        :meth:`replay` charged the copy a fresh bound needs."""
        clock = self._clock
        if at_pivot:
            clock.charge_probes(self.sim.piece_count, 1)
            return start
        position = self._positions[value]
        self.sim.add_crack_at(i, value, position)
        if end > start:
            clock.charge_crack(end - start, 1)
        else:
            clock.charge_empty_crack()
        self._tape.log(CrackOrigin.QUERY)
        return position

    def replay_query(self, low: Key, high: Key) -> RangeView:
        """Account for one window query; return its result view.

        ``low``/``high`` are the query's range normalised into the
        column's domain, as :meth:`CrackerIndex.begin_select_batch`
        took them.  Owns the query's whole charge stream: the
        per-query overhead, then exactly the charges and tape counts a
        sequential :meth:`CrackerIndex.select_keys` would have produced
        at this point of the window.  A read whose two bounds are
        pivots of the shadow map -- two hits in its ``cut_of`` -- is
        priced in one step (``charge_warm_select``) and answered from
        the index's span-view cache; only a read with a fresh bound
        reaches the bisect replay, :meth:`replay`.
        """
        cut_of = self.sim.cut_of
        if low in cut_of and high in cut_of:
            self._clock.charge_warm_select(len(cut_of) + 1)
            self._done += 1
            positions = self._positions
            span = (positions[low], positions[high])
            view = self._view_cache.get(span)
            if view is None:
                view = self._view_cache[span] = RangeView(
                    self._values, span[0], span[1]
                )
            return view
        self._clock.charge_query()
        return self.replay(low, high)

    def replay(self, low: Key, high: Key) -> RangeView:
        """The bisect replay of one window query whose per-query
        overhead :meth:`replay_query` already charged; return its
        result view.

        Correct for any range, and reached for those with a fresh
        bound: each bound is located on the shadow map, a fresh one is
        cut there at its order-independent position (the two fused
        into a crack-in-three when they fall into the same non-empty
        piece), and a pivot is priced as a binary search.
        """
        sim = self.sim
        low_loc, high_loc = sim.locate_pair(low, high)
        low_index, start, end, low_pivot = low_loc
        top = high > self._largest
        if not (low_pivot and (top or high_loc[3])):
            self._charge_copy_if_needed()
        if top:
            # A top is the end of the column, as in select_keys: one cut.
            pos_low = self._cut(low, low_index, start, end, low_pivot)
            pos_high = len(self._values)
        else:
            # Same slot: no pivot lies in (low, high], so high is fresh.
            if low_index == high_loc[0] and not low_pivot and end > start:
                pos_low = self._positions[low]
                pos_high = self._positions[high]
                sim.add_crack_at(low_index, low, pos_low)
                sim.add_crack_at(low_index + 1, high, pos_high)
                self._clock.charge_crack(end - start, 2)
                self._tape.log(CrackOrigin.QUERY, 2)
            else:
                pos_low = self._cut(low, low_index, start, end, low_pivot)
                if not low_pivot:  # high's piece moved one slot right
                    high_loc = (high_loc[0] + 1, *high_loc[1:])
                pos_high = self._cut(high, *high_loc)
        self._done += 1
        return RangeView(self._values, pos_low, pos_high)

    def empty(self) -> RangeView:
        """The answer to a window query whose range is empty: no probe,
        no charge, no tape, and no replay slot (the physical pass never
        saw it)."""
        return RangeView(self._values, 0, 0)

    def refresh_arrays(self) -> None:
        """Capture the index's physical array, view cache and
        position map (its piece map's ``cut_of``, which the physical
        pass has filled).

        Repeated warm predicates resolve to the same
        ``[pos_low, pos_high)`` slice, and RangeViews are immutable, so
        identical slices share one view object from a dict on the
        index (:meth:`CrackerIndex.span_views`).  Long-lived
        (detached) replays re-capture all three when a window binds
        them after the index replaced its array or its piece map:
        views must slice the index's *current* arrays, and a rebuild
        replaces the piece map.  Replays are still not safe across update merges
        that shift cut positions -- the shadow map would be stale;
        serving-eligible strategies never merge mid-run (see
        :mod:`repro.serving`).
        """
        index = self._index
        self._values = index._array
        self._view_cache: dict[tuple[int, int], RangeView] = (
            index.span_views()
        )
        self._positions: dict[Key, int] = index._pieces.cut_of

    def check_consistent(self) -> None:
        """Verify the replay converged onto the physical state.

        Debug/test helper: after a full replay the shadow map must
        equal the real (already advanced) piece map and keep its own
        invariants (its ``cut_of`` decides a converged read).

        Raises:
            CrackerError: when the replay and the physical pass
                disagree, or the shadow's ``cut_of`` and lists do -- an
                accounting bug.
        """
        sim = self.sim
        real = self._index.piece_map
        if sim.pivots() != real.pivots() or sim.cuts() != real.cuts():
            raise CrackerError(
                "batched select replay diverged from the physical pass"
            )
        sim.check_invariants()


class DetachedCrackReplay(CrackSelectBatch):
    """A persistent per-client accounting replay over a shared index.

    The concurrent serving front-end (:mod:`repro.serving`) runs many
    clients against **one** physical cracker index: the index
    accumulates the union of every client's (and every tuning
    worker's) cracks, while each client carries a detached replay
    whose shadow map evolves only through that client's own queries
    -- the exact piece-boundary trajectory of the client running
    *alone* against a fresh index.

    This works because a crack's position is order independent: the cut
    for value ``v`` always lands at the number of elements ``< v``, no
    matter which other cracks -- from other clients, other windows, or
    idle-time tuning -- happen around it.  The physical union therefore
    serves every client's solo piece boundaries, and the replay's
    charges (which depend only on the shadow's piece sizes and the
    order-independent positions) reproduce the solo charge stream
    bit-for-bit.

    Unlike its window-scoped parent, a detached replay

    * never converges onto the physical map (``check_consistent`` does
      not apply);
    * persists across windows: re-``bind`` the lane's clock every
      window (which re-captures the index's arrays if they were
      replaced) and keep replaying;
    * counts onto its own tape, so each client owns solo-identical
      crack counts;
    * charges its own copy-on-first-touch materialization, like the
      solo index would on the client's first crack;
    * resolves positions from the index's current piece map, whose
      cuts must cover every bound the client queries (the serving
      front-end cracks the missing ones with
      :meth:`CrackerIndex.crack_bounds_batch` each window).
    """

    __slots__ = ()

    @classmethod
    def solo(cls, index, tape) -> "DetachedCrackReplay":
        """A replay starting from the virgin (uncracked) column state."""
        sim = PieceMap(index.row_count, dtype=index.piece_map.dtype)
        return cls(index, sim, copy_charged=False, expected=0, tape=tape)

    def bind(self, clock) -> None:
        self._clock = clock
        # Serve views over the index's current arrays and piece map: a
        # widening or a rebuild replaces them.
        index = self._index
        if (
            self._values is not index._array
            or self._positions is not index._pieces.cut_of
        ):
            self.refresh_arrays()
