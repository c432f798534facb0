"""Clocks: virtual (cost-model driven) and wall (perf_counter) time.

All engine components take a clock and report their work as cost
charges via :meth:`Clock.charge`.  Under a :class:`SimClock` the charge
advances virtual time according to the calibrated cost model; under a
:class:`WallClock` charges are counted but time flows by itself.  This
lets the same experiment code produce both the paper-scale projection
and genuine wall-clock measurements.

Parallel phases model the paper's idle-core claim: between
:meth:`SimClock.begin_parallel` and :meth:`SimClock.end_parallel`,
charges accumulate on per-thread *lanes* instead of advancing the
shared timeline, and the phase advances virtual time by the **maximum**
lane (wall-clock is the slowest worker, not the sum of all workers).
The sum of all lanes is still reported as busy time, so experiments can
quote both elapsed seconds and aggregate CPU work.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Protocol, runtime_checkable

from repro.errors import ConfigError
from repro.simtime.charge import CostCharge
from repro.simtime.model import _NS_PER_S, CostModel


def wall_now() -> float:
    """Real monotonic seconds -- the sanctioned wall-clock read.

    Charged paths must not read wall time (bit-identical fingerprints
    depend on it), but a few mechanisms are *about* real time and
    nothing else: latch-acquisition deadlines, worker idle backoff,
    serving batch-formation windows.  Those call this helper instead of
    :func:`time.monotonic` directly, so the determinism linter
    (:mod:`repro.analysis.rules.determinism`) can allow exactly one
    audited escape hatch and flag every other wall-clock read.
    """
    return time.monotonic()  # repro: allow[determinism] -- the one audited wall-time read; callers use it only for real-time bounds (deadlines, backoff), never for charged accounting


def wall_sleep(seconds: float) -> None:
    """Real sleep -- the sanctioned wall-clock blocking wait.

    Counterpart of :func:`wall_now` for worker backoff loops; see its
    docstring for the contract.
    """
    time.sleep(seconds)  # repro: allow[determinism] -- the one audited real sleep; used for thread backoff, never on a charged path


@dataclass(slots=True)
class ParallelAccount:
    """What one parallel phase cost.

    Attributes:
        elapsed_s: virtual wall-clock of the phase -- the maximum lane.
        busy_s: aggregate work across all lanes (the serial-equivalent
            cost; ``busy_s / elapsed_s`` is the achieved speedup).
        lanes: per-lane busy seconds, keyed by the clock's stable lane
            id (see :meth:`SimClock.current_lane`).  Lane ids are used
            instead of raw thread idents because the OS reuses idents:
            a short-lived thread's ident can be handed to a later
            thread, silently merging two lanes and overstating the
            phase's elapsed time.
    """

    elapsed_s: float = 0.0
    busy_s: float = 0.0
    lanes: dict[int, float] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        """Busy-to-elapsed ratio; 1.0 for an empty phase."""
        if self.elapsed_s <= 0:
            return 1.0
        return self.busy_s / self.elapsed_s


@runtime_checkable
class Clock(Protocol):
    """Minimal clock interface used throughout the engine."""

    def now(self) -> float:
        """Current time in seconds (virtual or wall)."""
        ...

    def charge(self, charge: CostCharge) -> float:
        """Account for work; return the seconds it was priced at."""
        ...

    def sleep(self, seconds: float) -> None:
        """Let ``seconds`` of time pass (idle time)."""
        ...


class SimClock:
    """Virtual clock driven by a :class:`CostModel`.

    Time only moves when work is charged or idle time is injected,
    which makes experiments deterministic and lets a 10^6-row run
    report 10^8-row seconds.
    """

    def __init__(self, model: CostModel | None = None) -> None:
        self.model = model if model is not None else CostModel()
        self._now = 0.0
        self.total_charge = CostCharge()
        self._parallel = False
        self._parallel_base = 0.0
        self._lanes: dict[int, float] = {}
        self._lane_lock = threading.Lock()
        self._lane_tls = threading.local()
        self._lane_seq = 0

    def current_lane(self) -> int:
        """This thread's stable lane id (allocated on first use).

        Thread idents are recycled by the OS, so two sequential
        short-lived threads could share one; a thread-local sequence
        number keeps every thread's lane distinct for the clock's
        lifetime.
        """
        lane = getattr(self._lane_tls, "lane", None)
        if lane is None:
            with self._lane_lock:
                lane = self._lane_seq
                self._lane_seq += 1
            self._lane_tls.lane = lane
        return lane

    def fork(self) -> "SimClock":
        """An independent zero-origin clock sharing this clock's model.

        Serving lanes (ISSUE 5): each client of the concurrent serving
        front-end accounts its queries on its own serial fork, so
        per-client time is what that client would have measured running
        alone, while the parent clock keeps tracking shared work
        (background tuning, update merges).
        """
        return SimClock(self.model)

    def now(self) -> float:
        if self._parallel:
            lane = self._lanes.get(self.current_lane(), 0.0)
            return self._parallel_base + lane
        return self._now

    def charge(self, charge: CostCharge) -> float:
        seconds = self.model.seconds(charge)
        if self._parallel:
            lane = self.current_lane()
            with self._lane_lock:
                self._lanes[lane] = self._lanes.get(lane, 0.0) + seconds
                self.total_charge += charge
        else:
            self._now += seconds
            self.total_charge += charge
        return seconds

    def charge_probes(self, n: int, count: int) -> None:
        """``count`` consecutive ``charge(CostCharge.for_binary_search(n))``
        events -- the piece-map probes of a converged select -- without
        building the charges, bit-identically: the event is priced as
        :meth:`CostModel.nanoseconds` prices it (same terms, same order,
        the model read now, not remembered), time advances by ``count``
        separate additions, never by ``count * seconds``, and the
        counters land on whatever ``total_charge`` is at this moment.
        """
        if self._parallel:
            for _ in range(count):
                self.charge(CostCharge.for_binary_search(n))
            return
        steps = max(1, int(n).bit_length())
        constants = self.model.constants
        seconds = (
            constants.probe_ns_per_comparison * steps + constants.seek_ns * 1
        ) / _NS_PER_S
        for _ in range(count):
            self._now += seconds
        self.total_charge.comparisons += steps * count
        self.total_charge.seeks += count

    def settle_batch(self, now: float, charge: CostCharge) -> None:
        """Apply a window accountant's amortized settlement.

        ``now`` must be the left-fold of per-event priced seconds over
        the current reading (what repeated :meth:`charge` calls would
        have produced -- see :mod:`repro.simtime.accounting`); the
        aggregate ``charge`` lands in ``total_charge`` in one update.

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
        self.total_charge += charge

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ConfigError(f"cannot sleep a negative time: {seconds}")
        if self._parallel:
            lane = self.current_lane()
            with self._lane_lock:
                self._lanes[lane] = self._lanes.get(lane, 0.0) + seconds
        else:
            self._now += seconds

    # -- parallel phases (idle-core tuning) -----------------------------

    @property
    def in_parallel(self) -> bool:
        """Whether a parallel phase is currently open."""
        return self._parallel

    def begin_parallel(self) -> None:
        """Open a parallel phase: charges go to per-thread lanes.

        Raises:
            ConfigError: if a phase is already open (no nesting).
        """
        if self._parallel:
            raise ConfigError("parallel phases cannot nest")
        self._parallel_base = self._now
        self._lanes = {}
        self._parallel = True

    def parallel_elapsed(self) -> float:
        """The phase's elapsed time so far: the maximum lane."""
        with self._lane_lock:
            return max(self._lanes.values(), default=0.0)

    def parallel_busy(self) -> float:
        """The phase's aggregate work so far: the sum of all lanes."""
        with self._lane_lock:
            return sum(self._lanes.values())

    def end_parallel(self) -> ParallelAccount:
        """Close the phase; advance time by the maximum lane.

        Raises:
            ConfigError: if no phase is open.
        """
        if not self._parallel:
            raise ConfigError("no parallel phase to end")
        with self._lane_lock:
            lanes = dict(self._lanes)
            self._lanes = {}
        self._parallel = False
        elapsed = max(lanes.values(), default=0.0)
        self._now = self._parallel_base + elapsed
        return ParallelAccount(
            elapsed_s=elapsed, busy_s=sum(lanes.values()), lanes=lanes
        )

    # -- persistence -----------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        """Plain-structure dump of the clock's durable state.

        Safe to call while a parallel phase is open: ``_now`` equals the
        phase's base then (lanes only fold in at ``end_parallel``), so
        the captured timeline is the last settled point.  In-flight
        lane time is deliberately *not* captured -- a checkpoint taken
        while workers race records the state as of the window's start,
        which is exactly what a crash would leave behind.
        """
        return {
            "now": self._parallel_base if self._parallel else self._now,
            "total_charge": self.total_charge.as_dict(),
            "lane_seq": self._lane_seq,
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        """Adopt a previously-exported clock state (snapshot restore).

        Raises:
            ConfigError: inside a parallel phase (settle it first).
        """
        if self._parallel:
            raise ConfigError(
                "cannot restore clock state inside a parallel phase"
            )
        self._now = float(state["now"])
        self.total_charge = CostCharge.from_dict(state["total_charge"])
        # Lane ids already handed to live threads stay valid; the
        # sequence only ever moves forward.
        self._lane_seq = max(self._lane_seq, int(state["lane_seq"]))


class WallClock:
    """Real-time clock; charges are tallied but do not move time."""

    def __init__(self) -> None:
        self._origin = time.perf_counter()  # repro: allow[determinism] -- WallClock *is* the wall-time carrier; experiments opt into it explicitly
        self.total_charge = CostCharge()
        self._parallel_start: float | None = None

    def now(self) -> float:
        return time.perf_counter() - self._origin  # repro: allow[determinism] -- WallClock is the wall-time carrier

    def charge(self, charge: CostCharge) -> float:
        self.total_charge += charge
        return 0.0

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ConfigError(f"cannot sleep a negative time: {seconds}")
        time.sleep(seconds)  # repro: allow[determinism] -- WallClock is the wall-time carrier

    # -- parallel phases: wall time overlaps by itself -------------------

    @property
    def in_parallel(self) -> bool:
        return self._parallel_start is not None

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


class Stopwatch:
    """Measures elapsed time on any clock between :meth:`start`/``stop``.

    Usable as a context manager::

        with Stopwatch(clock) as watch:
            ...work...
        elapsed = watch.elapsed
    """

    def __init__(self, clock: Clock) -> None:
        self._clock = clock
        self._started_at: float | None = None
        self.elapsed = 0.0

    def start(self) -> "Stopwatch":
        self._started_at = self._clock.now()
        return self

    def stop(self) -> float:
        if self._started_at is None:
            raise ConfigError("stopwatch stopped before being started")
        self.elapsed = self._clock.now() - self._started_at
        self._started_at = None
        return self.elapsed

    def __enter__(self) -> "Stopwatch":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
