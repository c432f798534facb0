"""Window accountants: amortized, bit-identical batch pricing.

Sequential query execution prices every charge through five Python
frames (``CostCharge`` construction, ``Clock.charge``,
``CostModel.seconds``/``nanoseconds``, counter accumulation) -- about
as expensive as the arithmetic is cheap.  A batched window instead
routes its charges through a :class:`WindowAccountant`, which

* replays the **exact** pricing arithmetic inline -- same constants,
  same term order, same per-event ``ns / 1e9`` conversion, same
  left-fold accumulation into the running clock reading -- so every
  timestamp and response time is bit-for-bit what the sequential
  per-event path would produce (``x + 0.0 == x`` makes the scalar
  zero-skip irrelevant);
* accumulates the integer work counters locally and settles them on
  the clock in **one** ``total_charge`` update per window
  (:meth:`WindowAccountant.finish`), integer sums being exact in any
  order.

A clock the accountant cannot price -- a wall clock, or a
:class:`SimClock` inside a parallel phase -- gets no window at all:
``Session.run_batch`` answers such a window one query at a time.

The accountant's :attr:`now` is the session's clock reading for the
duration of a window; the real clock must not be consulted (or
advanced by others) until :meth:`finish` has synced it.
"""

from __future__ import annotations

from repro.simtime.clock import SimClock

_NS_PER_S = 1e9


class WindowAccountant:
    """Amortized charge accounting over batched query windows.

    Prices events inline with a :class:`SimClock`'s cost model and
    syncs clock time and counters once per window; a session keeps one
    per clock, :meth:`rearm`-ed at every window's start.
    """

    __slots__ = (
        "clock",
        "now",
        "_scan_ns",
        "_crack_ns",
        "_materialize_ns",
        "_probe_ns",
        "_piece_ns",
        "_query_ns",
        "_crack_overhead_ns",
        "_scale",
        "_scanned",
        "_cracked",
        "_materialized",
        "_comparisons",
        "_seeks",
        "_pieces",
        "_queries",
        "_cracks",
        "_query_seconds",
        "_binary_seconds",
    )

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        model = clock.model
        constants = model.constants
        self._scan_ns = constants.scan_ns_per_element
        self._crack_ns = constants.crack_ns_per_element
        self._materialize_ns = constants.materialize_ns_per_element
        self._probe_ns = constants.probe_ns_per_comparison
        self._piece_ns = constants.piece_overhead_ns
        self._query_ns = constants.query_overhead_ns
        self._crack_overhead_ns = constants.crack_overhead_ns
        self._scale = model.scale
        self._query_seconds = (self._query_ns * 1) / _NS_PER_S
        #: Binary-search seconds by step count: the clock's own table
        #: for these constants (:meth:`SimClock.prices`).
        self._binary_seconds = clock.prices()
        self.rearm()

    def rearm(self) -> None:
        """Start a window at the clock's current reading with zeroed
        counters.  The prices stay: a clock's cost model is fixed.  A
        window runs outside parallel phases: the reading is ``_now``."""
        self.now = self.clock._now
        self._scanned = self._cracked = self._materialized = 0
        self._comparisons = self._seeks = self._pieces = 0
        self._queries = self._cracks = 0

    # -- events --------------------------------------------------------
    # Each method mirrors one hot-path charge shape; term order and
    # association replicate CostModel.nanoseconds exactly.

    def charge_query(self) -> None:
        """``CostCharge(queries=1)``."""
        self.now += self._query_seconds
        self._queries += 1

    def charge_binary(self, n: int) -> None:
        """``CostCharge.for_binary_search(n)``."""
        steps = max(1, int(n).bit_length())
        self.now += self._binary_seconds[steps]
        self._comparisons += steps
        self._seeks += 1

    def charge_binary_pair(self, n: int) -> None:
        """Two consecutive ``for_binary_search(n)`` charges in one call.

        One method dispatch, two identical left-fold advances (the
        priced seconds are computed once -- both events are equal).  A
        converged window read is priced by :meth:`charge_warm_select`
        instead, which folds the per-query overhead in too.
        """
        steps = max(1, int(n).bit_length())
        seconds = self._binary_seconds[steps]
        self.now += seconds
        self.now += seconds
        self._comparisons += 2 * steps
        self._seeks += 2

    def charge_warm_select(self, n: int) -> None:
        """One per-query overhead charge plus two pivot probes.

        The fully-warm select (both bounds already cuts) in a single
        fold sequence: ``CostCharge(queries=1)``, then two
        ``for_binary_search(n)`` events.
        """
        now = self.now + self._query_seconds
        self._queries += 1
        steps = max(1, int(n).bit_length())
        seconds = self._binary_seconds[steps]
        now += seconds
        self.now = now + seconds
        self._comparisons += 2 * steps
        self._seeks += 2

    def charge_scan_query(self, scanned: int, materialized: int) -> None:
        """Per-query overhead plus a full-scan charge, fused."""
        self.now += self._query_seconds
        self._queries += 1
        ns = self._scan_ns * scanned * self._scale
        ns += self._materialize_ns * materialized * self._scale
        self.now += ns / _NS_PER_S
        self._scanned += scanned
        self._materialized += materialized

    def charge_crack(self, size: int, cracks: int) -> None:
        """``CostCharge(elements_cracked=size, pieces_touched=1,
        cracks=cracks)`` -- one crack-in-two (`cracks=1`) or a fused
        crack-in-three (`cracks=2`)."""
        ns = self._crack_ns * size * self._scale
        ns += self._piece_ns * 1
        ns += self._crack_overhead_ns * cracks
        self.now += ns / _NS_PER_S
        self._cracked += size
        self._pieces += 1
        self._cracks += cracks

    def charge_empty_crack(self) -> None:
        """``CostCharge(cracks=1)`` (cracking an empty piece)."""
        self.now += (self._crack_overhead_ns * 1) / _NS_PER_S
        self._cracks += 1

    def charge_materialize(self, rows: int) -> None:
        """``CostCharge(elements_materialized=rows)`` (copy-on-first-
        touch)."""
        self.now += (
            self._materialize_ns * rows * self._scale
        ) / _NS_PER_S
        self._materialized += rows

    def charge_scan(self, scanned: int, materialized: int) -> None:
        """``CostCharge(elements_scanned=..., elements_materialized=...)``."""
        ns = self._scan_ns * scanned * self._scale
        ns += self._materialize_ns * materialized * self._scale
        self.now += ns / _NS_PER_S
        self._scanned += scanned
        self._materialized += materialized

    def charge_pending_merge(self, deletes: int, materialized: int) -> None:
        """``CostCharge.for_pending_merge(deletes, materialized)``."""
        comparisons = max(1, deletes)
        ns = self._materialize_ns * materialized * self._scale
        ns += self._probe_ns * comparisons
        self.now += ns / _NS_PER_S
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
