"""Window accountants: amortized batch pricing.

Sequential execution prices each charge through a ``CostCharge``,
``Clock.charge`` and ``CostModel.picoseconds``.  A batched window
routes its charges through a :class:`WindowAccountant` instead, which
adds each event's ``sum(counter * price)`` inline and settles the
window's time and work counters on the clock in one update
(:meth:`WindowAccountant.finish`).  Integer sums are exact in any
order, so every reading equals the per-event path's.  Served client
lanes are its one user: each lane is a :class:`SimClock` fork that
never opens a parallel phase.

The accountant's :attr:`now` (integer picoseconds) is the session's
clock reading for the duration of a window; the real clock must not be
consulted (or advanced by others) until :meth:`finish` has synced it.
"""

from __future__ import annotations

from repro.simtime.clock import SimClock


class WindowAccountant:
    """Amortized charge accounting over batched query windows; a
    session keeps one per clock, :meth:`rearm`-ed at every window's
    start."""

    __slots__ = (
        "clock", "now", "_model", "_scanned", "_cracked", "_materialized",
        "_comparisons", "_seeks", "_pieces", "_queries", "_cracks",
    )

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self.rearm()

    def rearm(self) -> None:
        """Start a window at the clock's current reading, priced by its
        current model, with zeroed counters.  A window runs outside
        parallel phases: the reading is ``_now``."""
        self._model = self.clock.model
        self.now = self.clock._now
        self._scanned = self._cracked = self._materialized = 0
        self._comparisons = self._seeks = self._pieces = 0
        self._queries = self._cracks = 0

    # -- events: each method prices one hot-path charge shape ----------

    def charge_query(self) -> None:
        """``CostCharge(queries=1)``."""
        self.now += self._model.query_ps
        self._queries += 1

    def charge_binary(self, n: int) -> None:
        """``CostCharge.for_binary_search(n)``."""
        steps = int(n).bit_length() or 1
        model = self._model
        self.now += model.probe_ps * steps + model.seek_ps
        self._comparisons += steps
        self._seeks += 1

    def charge_binary_pair(self, n: int) -> None:
        """Two ``for_binary_search(n)`` charges."""
        self.charge_binary(n)
        self.charge_binary(n)

    def charge_warm_select(self, n: int) -> None:
        """A fully-warm select (both bounds already cuts):
        ``CostCharge(queries=1)`` plus two ``for_binary_search(n)``."""
        steps = int(n).bit_length() or 1
        model = self._model
        self.now += model.query_ps + 2 * (
            model.probe_ps * steps + model.seek_ps
        )
        self._queries += 1
        self._comparisons += 2 * steps
        self._seeks += 2

    def charge_scan_query(self, scanned: int, materialized: int) -> None:
        """Per-query overhead plus a full-scan charge, fused."""
        self.charge_scan(scanned, materialized)
        self.now += self._model.query_ps
        self._queries += 1

    def charge_crack(self, size: int, cracks: int) -> None:
        """``CostCharge(elements_cracked=size, pieces_touched=1,
        cracks=cracks)`` -- one crack-in-two (`cracks=1`) or a fused
        crack-in-three (`cracks=2`)."""
        model = self._model
        self.now += (
            model.crack_ps * size
            + model.piece_ps
            + model.crack_overhead_ps * cracks
        )
        self._cracked += size
        self._pieces += 1
        self._cracks += cracks

    def charge_empty_crack(self) -> None:
        """``CostCharge(cracks=1)`` (cracking an empty piece)."""
        self.now += self._model.crack_overhead_ps
        self._cracks += 1

    def charge_materialize(self, rows: int) -> None:
        """``CostCharge(elements_materialized=rows)`` (copy-on-first-
        touch)."""
        self.now += self._model.materialize_ps * rows
        self._materialized += rows

    def charge_scan(self, scanned: int, materialized: int) -> None:
        """``CostCharge(elements_scanned=..., elements_materialized=...)``."""
        model = self._model
        self.now += (
            model.scan_ps * scanned + model.materialize_ps * materialized
        )
        self._scanned += scanned
        self._materialized += materialized

    def charge_pending_merge(self, deletes: int, materialized: int) -> None:
        """:meth:`SimClock.charge_pending_merge`."""
        comparisons = max(1, deletes)
        model = self._model
        self.now += (
            model.materialize_ps * materialized + model.probe_ps * comparisons
        )
        self._materialized += materialized
        self._comparisons += comparisons

    # -- settlement ----------------------------------------------------

    def finish(self) -> None:
        """Sync the window's time and counters onto the clock."""
        self.clock.settle_batch(
            self.now, self._scanned, self._cracked, self._materialized,
            self._comparisons, self._seeks, self._pieces, self._queries,
            self._cracks,
        )
