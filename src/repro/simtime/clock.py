"""Clocks: virtual (cost-model driven) and wall (perf_counter) time.

The engine reports each unit of work through its clock's named event
methods (:meth:`Clock.charge_crack`, ...) or :meth:`Clock.charge` with
a whole :class:`CostCharge`.  Each event is priced once, here, from the
:class:`CostModel`'s integer-picosecond per-unit prices, so charges add
exactly in any order.  A :class:`SimClock` advances virtual time by the
price; a :class:`WallClock` prices nothing and lets time flow by itself.

Parallel phases model the paper's idle-core claim: between
:meth:`SimClock.begin_parallel` and :meth:`SimClock.end_parallel`,
charges accumulate on named *lanes* instead of advancing the shared
timeline -- the caller sets :attr:`Clock.lane` to the worker slot whose
work it is pricing -- and the phase advances virtual time by the
**maximum** lane; the sum of all lanes is reported as busy time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigError
from repro.simtime.charge import CostCharge
from repro.simtime.costs import CostConstants
from repro.simtime.model import PS_PER_S, CostModel


def wall_sleep(seconds: float) -> None:
    """Real sleep -- the one sanctioned wall-clock call.

    Charged paths must not touch wall time (bit-identical fingerprints
    depend on it), but a retry loop's backoff is about real time and
    nothing else.  It sleeps through this helper instead of
    :func:`time.sleep` directly, so the determinism linter
    (:mod:`repro.analysis.rules.determinism`) can allow exactly one
    audited escape hatch and flag every other wall-clock read.
    """
    time.sleep(seconds)  # repro: allow[determinism] -- the one audited real sleep; used for retry backoff, never on a charged path


@dataclass(slots=True)
class ParallelAccount:
    """What one parallel phase cost.

    Attributes:
        elapsed_s: virtual wall-clock of the phase -- the maximum lane.
        busy_s: aggregate work across all lanes (the serial-equivalent
            cost; ``busy_s / elapsed_s`` is the achieved speedup).
        lanes: per-lane busy seconds, keyed by lane name (the worker
            slot, :attr:`Clock.lane`).
    """

    elapsed_s: float = 0.0
    busy_s: float = 0.0
    lanes: dict[int, float] = field(default_factory=dict)


class Clock:
    """Counts work and prices it.

    One method per event shape adds the event's price to the clock and
    its counters to :attr:`total_charge` in one call, exactly as
    ``charge(CostCharge(<the same counters>))`` would; inside a
    :class:`SimClock`'s parallel phase it goes to lane :attr:`lane`
    instead.  A subclass says what time is: ``now()``,
    ``sleep(seconds)`` and the parallel phases (``begin_parallel``,
    ``parallel_elapsed``, ``parallel_busy``, ``end_parallel``).
    """

    #: Whether a parallel phase routes events to lanes.
    _parallel = False
    #: The lane a parallel phase charges: the worker slot whose work
    #: the (single) pricing thread is accounting.
    lane = 0

    def __init__(self, model: CostModel) -> None:
        self.model = model
        #: Virtual time and a parallel phase's lanes, in integer
        #: picoseconds; ``_now`` stays at the phase's base until the
        #: phase ends.
        self._now = 0
        self.total_charge = CostCharge()
        self._lanes: dict[int, int] = {}

    def charge(self, charge: CostCharge) -> float:
        """Account for ``charge``; return the seconds it was priced at."""
        ps = self.model.picoseconds(charge)
        if self._parallel:
            self._to_lane(ps, charge)
        else:
            self._now += ps
            self.total_charge += charge
        return ps / PS_PER_S

    def _to_lane(self, ps: int, charge: CostCharge | None) -> None:
        """Add ``ps`` (and ``charge``'s work) to lane :attr:`lane`."""
        lanes = self._lanes
        lanes[self.lane] = lanes.get(self.lane, 0) + ps
        if charge is not None:
            self.total_charge += charge

    # -- events: one method per charged shape ---------------------------

    def charge_query(self) -> None:
        """A query's fixed overhead: ``queries=1``."""
        ps = self.model.query_ps
        if self._parallel:
            return self._to_lane(ps, CostCharge(queries=1))
        self._now += ps
        self.total_charge.queries += 1

    def charge_probes(self, n: int, count: int) -> None:
        """``count`` binary searches over ``n`` ordered elements: a
        comparison per bit of ``n`` (at least one) and a seek each."""
        steps = (int(n).bit_length() or 1) * count
        ps = self.model.probe_ps * steps + self.model.seek_ps * count
        if self._parallel:
            charge = CostCharge(comparisons=steps, seeks=count)
            return self._to_lane(ps, charge)
        self._now += ps
        total = self.total_charge
        total.comparisons += steps
        total.seeks += count

    def charge_warm_select(self, n: int) -> None:
        """A select whose two bounds are cuts: :meth:`charge_query`
        plus two probes over ``n`` pieces, in one call."""
        steps = 2 * (int(n).bit_length() or 1)
        model = self.model
        ps = model.query_ps + model.probe_ps * steps + 2 * model.seek_ps
        if self._parallel:
            charge = CostCharge(comparisons=steps, seeks=2, queries=1)
            return self._to_lane(ps, charge)
        self._now += ps
        total = self.total_charge
        total.queries += 1
        total.comparisons += steps
        total.seeks += 2

    def charge_crack(self, elements: int, cracks: int) -> None:
        """``cracks`` cuts of one piece in a pass moving ``elements``:
        a crack-in-two or -three reads its piece once, a multi-pivot
        pass twice."""
        model = self.model
        ps = model.crack_ps * elements + model.piece_ps
        ps += model.crack_overhead_ps * cracks
        if self._parallel:
            charge = CostCharge(
                elements_cracked=elements, pieces_touched=1, cracks=cracks
            )
            return self._to_lane(ps, charge)
        self._now += ps
        total = self.total_charge
        total.elements_cracked += elements
        total.pieces_touched += 1
        total.cracks += cracks

    def charge_empty_crack(self) -> None:
        """A crack-in-two of an empty piece: the crack alone."""
        ps = self.model.crack_overhead_ps
        if self._parallel:
            return self._to_lane(ps, CostCharge(cracks=1))
        self._now += ps
        self.total_charge.cracks += 1

    def charge_materialize(self, rows: int) -> None:
        """``rows`` elements copied out (a first-touch copy, a
        checkpoint's bytes)."""
        ps = self.model.materialize_ps * rows
        if self._parallel:
            return self._to_lane(ps, CostCharge(elements_materialized=rows))
        self._now += ps
        self.total_charge.elements_materialized += rows

    def charge_scan(
        self, scanned: int, materialized: int, pieces: int = 0
    ) -> None:
        """A predicate scan over ``scanned`` elements of ``pieces``
        pieces, ``materialized`` of them copied out."""
        model = self.model
        ps = model.scan_ps * scanned + model.materialize_ps * materialized
        ps += model.piece_ps * pieces
        if self._parallel:
            charge = CostCharge(
                elements_scanned=scanned,
                elements_materialized=materialized,
                pieces_touched=pieces,
            )
            return self._to_lane(ps, charge)
        self._now += ps
        total = self.total_charge
        total.elements_scanned += scanned
        total.elements_materialized += materialized
        total.pieces_touched += pieces

    def charge_sort(self, elements: int, pieces: int) -> None:
        """One sort of ``elements`` elements over ``pieces`` pieces
        (:meth:`CostModel.sort_ps`)."""
        ps = self.model.sort_ps(elements) + self.model.piece_ps * pieces
        if self._parallel:
            charge = CostCharge(
                elements_sorted=elements, pieces_touched=pieces
            )
            return self._to_lane(ps, charge)
        self._now += ps
        total = self.total_charge
        total.elements_sorted += elements
        total.pieces_touched += pieces

    def charge_merge(self, elements: int, pieces: int) -> None:
        """An update merge rewriting ``elements`` elements and changing
        ``pieces`` pieces."""
        ps = self.model.merge_ps * elements + self.model.piece_ps * pieces
        if self._parallel:
            charge = CostCharge(
                elements_merged=elements, pieces_touched=pieces
            )
            return self._to_lane(ps, charge)
        self._now += ps
        total = self.total_charge
        total.elements_merged += elements
        total.pieces_touched += pieces

    def charge_pending_merge(self, deletes: int, materialized: int) -> None:
        """A pending-update merge into a read's result: one comparison
        per pending delete (at least one, the range probe) and the
        corrected result's materialization."""
        comparisons = max(1, deletes)
        model = self.model
        ps = model.probe_ps * comparisons + model.materialize_ps * materialized
        if self._parallel:
            charge = CostCharge(
                comparisons=comparisons, elements_materialized=materialized
            )
            return self._to_lane(ps, charge)
        self._now += ps
        total = self.total_charge
        total.comparisons += comparisons
        total.elements_materialized += materialized


class SimClock(Clock):
    """Virtual clock driven by a :class:`CostModel`.

    Time only moves when work is charged or idle time is injected,
    which makes experiments deterministic and lets a 10^6-row run
    report 10^8-row seconds.
    """

    def __init__(self, model: CostModel | None = None) -> None:
        super().__init__(model if model is not None else CostModel())

    def fork(self) -> "SimClock":
        """An independent zero-origin clock sharing this clock's model.

        Serving lanes: each client of the concurrent serving
        front-end accounts its queries on its own serial fork, so
        per-client time is what that client would have measured running
        alone, while the parent clock keeps tracking shared work
        (background tuning, update merges).
        """
        return SimClock(self.model)

    def now(self) -> float:
        if self._parallel:
            lane = self._lanes.get(self.lane, 0)
            return (self._now + lane) / PS_PER_S
        return self._now / PS_PER_S

    def charge(self, charge: CostCharge) -> float:
        """:meth:`Clock.charge`; pinned by perfbench (ROADMAP 1a),
        whose trace list resolves it in this class's own namespace."""
        return Clock.charge(self, charge)

    def settle_batch(
        self, now: int, scanned: int, cracked: int, materialized: int,
        comparisons: int, seeks: int, pieces: int, queries: int,
        cracks: int,
    ) -> None:
        """Move the clock to ``now`` (integer picoseconds) and add the
        :class:`CostCharge` counters of those names to
        ``total_charge`` in one update.  Pinned by perfbench (ROADMAP
        1a); nothing in the engine calls it.

        Raises:
            ConfigError: inside a parallel phase, or if ``now`` runs
                backwards.
        """
        if self._parallel:
            raise ConfigError(
                "cannot settle a batch window inside a parallel phase"
            )
        if now < self._now:
            raise ConfigError(
                f"batch settlement runs time backwards: {now} < {self._now}"
            )
        self._now = now
        total = self.total_charge
        total.elements_scanned += scanned
        total.elements_cracked += cracked
        total.elements_materialized += materialized
        total.comparisons += comparisons
        total.seeks += seeks
        total.pieces_touched += pieces
        total.queries += queries
        total.cracks += cracks

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ConfigError(f"cannot sleep a negative time: {seconds}")
        ps = round(seconds * PS_PER_S)
        if self._parallel:
            return self._to_lane(ps, None)
        self._now += ps

    # -- parallel phases (idle-core tuning) -----------------------------

    def begin_parallel(self) -> None:
        """Open a parallel phase: charges go to lane :attr:`lane`,
        starting at lane 0.

        Raises:
            ConfigError: if a phase is already open (no nesting).
        """
        if self._parallel:
            raise ConfigError("parallel phases cannot nest")
        self._lanes = {}
        self.lane = 0
        self._parallel = True

    def parallel_elapsed(self) -> float:
        """The phase's elapsed time so far: the maximum lane."""
        return max(self._lanes.values(), default=0) / PS_PER_S

    def parallel_busy(self) -> float:
        """The phase's aggregate work so far: the sum of all lanes."""
        return sum(self._lanes.values()) / PS_PER_S

    def end_parallel(self) -> ParallelAccount:
        """Close the phase; advance time by the maximum lane.

        Raises:
            ConfigError: if no phase is open.
        """
        if not self._parallel:
            raise ConfigError("no parallel phase to end")
        lanes, self._lanes = self._lanes, {}
        self._parallel = False
        elapsed = max(lanes.values(), default=0)
        self._now += elapsed
        return ParallelAccount(
            elapsed_s=elapsed / PS_PER_S,
            busy_s=sum(lanes.values()) / PS_PER_S,
            lanes={lane: ps / PS_PER_S for lane, ps in lanes.items()},
        )

    # -- persistence -----------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        """Plain-structure dump of the clock's durable state.

        Safe to call while a parallel phase is open: ``_now`` is the
        phase's base then (lanes only add in at ``end_parallel``), so
        the captured timeline is the last settled point.  In-flight
        lane time is deliberately *not* captured -- a checkpoint taken
        inside a worker window would record the state as of the
        window's start, which is exactly what a crash would leave
        behind.
        """
        return {
            "now_ps": self._now,
            "total_charge": self.total_charge.as_dict(),
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        """Adopt a previously-exported clock state (snapshot restore).

        Raises:
            ConfigError: inside a parallel phase (settle it first).
            ValueError: on a state whose keys are not the ones
                :meth:`state_dict` writes.
            TypeError: on a counter :class:`CostCharge` does not have.
        """
        if self._parallel:
            raise ConfigError(
                "cannot restore clock state inside a parallel phase"
            )
        if state.keys() != {"now_ps", "total_charge"}:
            raise ValueError("clock state has keys state_dict never wrote")
        self._now = int(state["now_ps"])
        self.total_charge = CostCharge.from_dict(state["total_charge"])


#: A wall clock's prices: every per-unit price is zero, so its events
#: count work and never move virtual time.
_UNPRICED = CostModel(
    CostConstants(
        scan_ns_per_element=0.0, crack_ns_per_element=0.0,
        sort_ns_per_element_log=0.0, merge_ns_per_element=0.0,
        materialize_ns_per_element=0.0, probe_ns_per_comparison=0.0,
        seek_ns=0.0, piece_overhead_ns=0.0, query_overhead_ns=0.0,
        crack_overhead_ns=0.0,
    )
)


class WallClock(Clock):
    """Real-time clock; charges are tallied but do not move time."""

    def __init__(self) -> None:
        super().__init__(_UNPRICED)
        self._origin = time.perf_counter()  # repro: allow[determinism] -- WallClock *is* the wall-time carrier; experiments opt into it explicitly
        self._parallel_start: float | None = None

    def now(self) -> float:
        return time.perf_counter() - self._origin  # repro: allow[determinism] -- WallClock is the wall-time carrier

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ConfigError(f"cannot sleep a negative time: {seconds}")
        time.sleep(seconds)  # repro: allow[determinism] -- WallClock is the wall-time carrier

    # -- parallel phases: wall time overlaps by itself -------------------

    def begin_parallel(self) -> None:
        """Open a parallel phase (wall time already runs in parallel).

        Raises:
            ConfigError: if a phase is already open (no nesting).
        """
        if self._parallel_start is not None:
            raise ConfigError("parallel phases cannot nest")
        self._parallel_start = self.now()

    def parallel_elapsed(self) -> float:
        if self._parallel_start is None:
            return 0.0
        return self.now() - self._parallel_start

    def parallel_busy(self) -> float:
        return self.parallel_elapsed()

    def end_parallel(self) -> ParallelAccount:
        """Close the phase; elapsed and busy are both real time.

        Raises:
            ConfigError: if no phase is open.
        """
        if self._parallel_start is None:
            raise ConfigError("no parallel phase to end")
        elapsed = self.now() - self._parallel_start
        self._parallel_start = None
        return ParallelAccount(elapsed_s=elapsed, busy_s=elapsed)
