"""Parallel idle-time tuning workers: the paper's idle-core claim.

The paper counts idle CPU cores as an idle resource a holistic kernel
should spend on index refinement -- "multiple tuning actions in one
go" where possible.  This module provides that machinery: a
:class:`TuningWorkerPool` of real ``threading`` workers that drain an
idle window's auxiliary refinement concurrently with each other, after
"Main Memory Adaptive Indexing for Multi-core Systems" (Alvarez et
al.).  The pool runs only inside :meth:`TuningWorkerPool.run_window`,
which the idle window waits on: no query, served window or snapshot
ever sees it running.

The threads only partition.  A worker takes its slot's batches in
order and runs each as *one* multi-pivot pass under its index's lock
(:meth:`LatchedCrackerAccess.crack_value`), handing back the pass's
unpriced record or the exception it raised.  Everything else runs on
the window's thread, in deal order, once the workers have drained:

* **plans** -- :meth:`TuningWorkerPool.submit` turns an idle window's
  ``actions=N`` into a *window plan*: N policy choices against the
  projected ranking (each planned crack counts as one more piece of
  its column), the chosen columns' random pivots from per-column
  seeded streams, one batch per column -- split at piece boundaries
  when there are fewer columns than workers -- dealt statically over
  the per-worker queues by estimated rows touched.  No two batches of
  a plan target the same piece: the partition-first chunking Alvarez
  et al. measure winning over latch-per-crack "parallel standard
  cracking".  Nothing about a window depends on thread timing -- not
  even which batch an armed ``workers.perform`` fault crashes, which
  the plan decides too;
* **lanes** -- under a :class:`~repro.simtime.clock.SimClock` the pool
  opens a *parallel phase*, and each record is priced onto the lane of
  the worker slot that ran it (:attr:`Clock.lane`); the phase advances
  virtual time by the **maximum** lane, so N workers doing W seconds
  of aggregate refinement cost the timeline ~W/N seconds, reproducing
  the paper's multi-core scaling without needing real parallelism
  under the GIL;
* **statistics** -- each slot's :class:`WorkerStats` counts its
  actions, the counters a window's
  :class:`~repro.holistic.scheduler.TuningReport` is read from;
* **supervision** -- the batch is the supervised unit: a crashed pass
  repairs the column, counts toward its quarantine and is dealt again
  (same pivots) to its own slot, whose thread lives on.

The pool is strictly additive: a kernel with ``num_workers=0`` never
constructs one and runs the serial scheduler bit-for-bit as before.
"""

from __future__ import annotations

import queue
import threading
import zlib
from dataclasses import dataclass

import numpy as np

from repro import faults
from repro.cracking.concurrency import LatchedCrackerAccess
from repro.cracking.index import CrackPass
from repro.cracking.tape import CrackTape
from repro.errors import (
    ConcurrencyError,
    ConfigError,
    CrackerError,
    InjectedFault,
)
from repro.holistic.policies import TuningPolicy
from repro.holistic.ranking import ColumnRanking, ColumnTuningState
from repro.holistic.scheduler import TuningReport, spend_window
from repro.holistic.tuner import AuxiliaryTuner, random_pivots
from repro.simtime.clock import Clock
from repro.storage.catalog import ColumnRef
from repro.storage.dtypes import Key

#: Queue sentinel that tells a worker thread to exit its loop.
_STOP = object()


@dataclass(frozen=True, slots=True)
class SupervisorPolicy:
    """How the pool reacts to worker crashes.

    Args:
        max_restarts_per_worker: crashes a single worker slot may have
            handled (its batch dealt again) before its next crash is
            fatal to the pool.
        quarantine_threshold: crashes attributed to one column before
            its refinement actions are dead-lettered.
    """

    max_restarts_per_worker: int = 8
    quarantine_threshold: int = 3


@dataclass(slots=True)
class WorkerStats:
    """Lifetime statistics of one tuning worker."""

    worker_id: int
    actions_attempted: int = 0
    actions_effective: int = 0
    busy_s: float = 0.0


@dataclass(slots=True)
class _Batch:
    """One column's share of a window plan: what a worker applies in
    one pass, and what the supervisor retries."""

    state: ColumnTuningState
    #: Attempts the batch stands for; reserved as ``state.planned``
    #: until it completes or is dropped.
    count: int
    #: Ascending random-crack pivots drawn at plan time.
    pivots: list[Key]
    #: Estimated rows the pass touches: what the static deal balances.
    weight: int
    #: The ``workers.perform`` fault the plan drew for this batch; the
    #: worker raises it when it starts the batch, once.
    fault: InjectedFault | None = None
    #: What the worker hands back: the pass's record, or the exception
    #: it raised.
    outcome: CrackPass | BaseException | None = None


class TuningWorkerPool:
    """N threads applying planned refinement batches.

    Args:
        clock: the shared engine clock; parallel phases are opened on
            it while the pool runs (``SimClock`` lanes make wall-clock
            the max over workers, ``WallClock`` overlaps by itself).
        tape: the kernel's crack tape.
        ranking: the continuous column ranking plans are made against.
        policy: resource-spreading policy.
        num_workers: worker thread count (>= 1).
        tuner: the kernel's tuner; supplies the cache-fit stopping
            criterion and applies each batch.
        seed: base seed.  Random pivots come from one stream per
            *column*, keyed by ``(seed, column name)`` and consumed in
            plan order, so a column's k-th pivot does not depend on the
            worker count or on which worker applies it.
    """

    def __init__(
        self,
        clock: Clock,
        tape: CrackTape,
        ranking: ColumnRanking,
        policy: TuningPolicy,
        num_workers: int,
        tuner: AuxiliaryTuner,
        seed: int | None = None,
    ) -> None:
        if num_workers < 1:
            raise ConfigError(
                f"a worker pool needs num_workers >= 1, got {num_workers}"
            )
        self.clock = clock
        self.tape = tape
        self.ranking = ranking
        self.policy = policy
        self.num_workers = num_workers
        self.tuner = tuner
        self.seed = seed
        self.stats: dict[int, WorkerStats] = {
            i: WorkerStats(worker_id=i) for i in range(num_workers)
        }
        self._pivot_rngs: dict[ColumnRef, np.random.Generator] = {}
        # One queue per worker, filled by the plan's static deal: the
        # lanes stay balanced regardless of how the GIL schedules the
        # threads, so N workers reliably cost ~1/N the elapsed virtual
        # time (the multi-core chunking of Alvarez et al.).
        self._queues: list[queue.Queue[object]] = [
            queue.Queue() for _ in range(num_workers)
        ]
        #: ``(slot, batch)`` in deal order, not yet accounted for.
        self._dealt: list[tuple[int, _Batch]] = []
        self._threads: dict[int, threading.Thread] = {}
        self._running = False
        self._failure: BaseException | None = None
        #: Supervision: a crashed batch's column is verified and, if
        #: inconsistent, rebuilt; the batch is dealt again to its slot;
        #: columns whose batches repeatedly crash are quarantined
        #: (dead-lettered).
        self.supervisor = SupervisorPolicy()
        self._restarts: dict[int, int] = {}
        self._crashes: dict[ColumnRef, int] = {}
        self.dead_letter: list[ColumnRef] = []
        self.restarts_total = 0
        self.rebuilds_total = 0
        self.crash_log: list[str] = []

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Open a parallel clock phase and accept batches.

        A worker's thread is spawned when its queue gets its first
        batch, so a window that finds nothing to refine costs no
        thread.
        """
        self._failure = None
        self.clock.begin_parallel()
        self._threads = {}
        self._restarts = {}
        self._running = True

    def _spawn_worker(self, slot: int) -> None:
        thread = threading.Thread(
            target=self._worker_loop,
            args=(slot,),
            name=f"tuning-worker-{slot}",
            daemon=True,
        )
        self._threads[slot] = thread
        thread.start()

    def submit(self, actions: int) -> int:
        """Plan ``actions`` refinement attempts and hand the batches to
        the workers; returns how many were planned (fewer when the
        projected ranking runs out first).

        Raises:
            ConfigError: if the pool is not running or ``actions`` < 0.
        """
        if not self._running:
            raise ConfigError("worker pool is not running; call start()")
        if actions < 0:
            raise ConfigError(f"actions must be >= 0, got {actions}")
        # Planning reads the piece maps: no batch may still be running.
        self._settle()
        return self._plan(actions)

    def drain(self) -> None:
        """Block until every submitted batch has been processed and
        accounted for.

        Raises:
            ConcurrencyError: re-raising the first *fatal* worker
                failure.  Supervised crashes (batches dealt again,
                quarantined columns) drain cleanly; the failure stays
                sticky once raised, so a later ``drain()`` cannot
                silently report success (clear it explicitly with
                :meth:`clear_failure`).
        """
        self._settle()
        self._check_failure()

    def _settle(self) -> None:
        """Wait for the workers, then account for every batch they
        ran, in deal order, on this thread: a record is priced onto
        its slot's lane (:meth:`_commit`), a crash is supervised
        (:meth:`_supervise_crash`).  Crashed batches that are retried
        are dealt again once the round is accounted for -- unless a
        fatal failure came up meanwhile -- and waited for in turn."""
        while self._dealt:
            for line in self._queues:
                line.join()
            dealt, self._dealt = self._dealt, []
            retries = []
            for slot, batch in dealt:
                outcome, batch.outcome = batch.outcome, None
                self.clock.lane = slot
                if isinstance(outcome, CrackPass):
                    self._commit(slot, batch, outcome)
                elif self._supervise_crash(slot, batch, outcome):
                    retries.append((slot, batch))
            for slot, batch in retries:
                if self._failure is None:
                    self._deal(slot, batch)
                else:
                    self._release(batch)

    def stop(self):
        """Drain, join the threads and close the parallel clock phase.

        Returns the phase's :class:`~repro.simtime.clock.ParallelAccount`
        (``None`` if the pool was not running); per-worker ``busy_s``
        statistics are updated from its lanes.

        Raises:
            ConcurrencyError: on a fatal worker failure.  The phase
                has already been settled by then (``end_parallel``
                cannot be retried), so the settled account and the
                updated per-worker statistics ride on the error as
                ``error.account`` / ``error.worker_stats`` instead of
                being lost.
        """
        if not self._running:
            return None
        self._settle()
        for slot in self._threads:
            self._queues[slot].put(_STOP)
        for thread in self._threads.values():
            thread.join()
        self._running = False
        account = self.clock.end_parallel()
        for slot, busy in account.lanes.items():
            self.stats[slot].busy_s += busy
        self._check_failure(account)
        return account

    def _check_failure(self, account=None) -> None:
        # The failure stays sticky: a second drain()/stop() must keep
        # failing until clear_failure() -- silently reporting success
        # after a fatal worker failure hid it from the caller.
        if self._failure is not None:
            failure = self._failure
            error = ConcurrencyError(f"tuning worker died: {failure!r}")
            error.account = account
            error.worker_stats = self.worker_stats()
            raise error from failure

    def clear_failure(self) -> BaseException | None:
        """Acknowledge and clear a fatal failure; returns it."""
        failure, self._failure = self._failure, None
        return failure

    # -- windows --------------------------------------------------------

    def run_window(
        self,
        actions: int | None = None,
        budget_s: float | None = None,
    ) -> TuningReport:
        """Drain one idle window through the workers.

        The kernel's idle loop (:func:`spend_window`) with one planned
        round per step: :meth:`submit` plans it, :meth:`drain` waits
        for it.  An action count is planned in full against the
        projected ranking and drained; degenerate pivots make the
        projection optimistic, so the window keeps planning rounds
        until the attempts are spent or a round finds the *actual*
        ranking with nothing left.  A time budget is checked between
        rounds of ``num_workers`` attempts, in parallel elapsed time
        (max over worker lanes).  The report counts what the workers'
        :class:`WorkerStats` counted during the window; ``busy_s`` is
        the aggregate work.

        The window owns the pool's whole lifecycle: it starts the pool
        and stops it before returning, also when a fatal worker failure
        raises out of it (as :meth:`stop`'s ``ConcurrencyError``).
        """
        self.start()
        try:
            elapsed_before = self.clock.parallel_elapsed()
            busy_before = self.clock.parallel_busy()
            attempted_before, effective_before = self._actions_done()
            report = TuningReport()

            def step(attempts: int) -> bool:
                planned = self.submit(attempts)
                self.drain()
                attempted, effective = self._actions_done()
                report.actions_attempted = attempted - attempted_before
                report.actions_effective = effective - effective_before
                return planned > 0

            spend_window(
                report,
                actions,
                budget_s,
                lambda: self.clock.parallel_elapsed() - elapsed_before,
                step,
                round_size=self.num_workers,
            )
            report.busy_s = self.clock.parallel_busy() - busy_before
        finally:
            self.stop()
        return report

    def _actions_done(self) -> tuple[int, int]:
        """Attempted and effective actions over all workers' lifetimes."""
        stats = self.stats.values()
        return (
            sum(s.actions_attempted for s in stats),
            sum(s.actions_effective for s in stats),
        )

    # -- planning -------------------------------------------------------

    def _plan(self, attempts: int) -> int:
        """Plan ``attempts`` refinements and enqueue them as batches.

        One policy choice per attempt against the projected ranking,
        then the random pivots of every chosen column from that
        column's own stream.  Each column becomes one batch (more when
        there are fewer columns than workers, see
        :meth:`_batches_for`), and the batches are dealt largest first
        to the least-loaded worker queue -- static and deterministic,
        so lane balance owes nothing to thread timing.  Each batch's
        ``workers.perform`` fault is drawn here too, in deal order, so
        which batch takes hit N owes nothing to it either.  Returns how
        many attempts were planned: fewer than asked when the projected
        ranking runs out, zero when it had nothing to offer at all.
        """
        chosen: dict[ColumnRef, list] = {}  # ref -> [state, attempts]
        for _ in range(attempts):
            state = self._choose_state()
            if state is None:
                break
            state.planned += 1
            chosen.setdefault(state.ref, [state, 0])[1] += 1
        shares = [
            (state, count, self._draw_pivots(state, count))
            for state, count in chosen.values()
        ]
        if not shares:
            return 0
        runs = -(-self.num_workers // len(shares))  # ceiling
        loads = [0] * self.num_workers
        for batch in sorted(
            (
                batch
                for share in shares
                for batch in self._batches_for(*share, runs)
            ),
            key=lambda batch: -batch.weight,
        ):
            slot = loads.index(min(loads))
            loads[slot] += batch.weight
            try:
                faults.trip("workers.perform")
            except InjectedFault as fault:
                batch.fault = fault
            self._deal(slot, batch)
        return sum(count for _, count, _ in shares)

    def _deal(self, slot: int, batch: _Batch) -> None:
        """Queue ``batch`` on worker ``slot``, spawning its thread on
        the slot's first batch of the window."""
        self._dealt.append((slot, batch))
        self._queues[slot].put(batch)
        if slot not in self._threads:
            self._spawn_worker(slot)

    def _choose_state(self) -> ColumnTuningState | None:
        """Pick the next non-quarantined column, or ``None`` when the
        (projected) ranking is exhausted.

        When the policy only ever offers dead-lettered columns there
        are two distinct situations.  If every *live* (non-quarantined)
        candidate is already refined, the unrefined work that remains
        is exactly the quarantined set: the pool has done everything it
        safely can, which is exhaustion, not failure.  But if a live
        unrefined candidate exists that the policy refuses to rotate to
        (the ranked policy re-offering a dead-lettered best column
        forever), submitted actions would silently become no-ops -- the
        exact bug class the sticky failure above closes for dead workers --
        so that is a fatal, sticky failure.
        """
        for _ in range(len(self.ranking) + 1):
            state = self.policy.choose(self.ranking)
            if state is None or state.ref not in self.dead_letter:
                return state
        stuck = any(
            s.ref not in self.dead_letter and not self.ranking.is_refined(s)
            for s in self.ranking.states()
        )
        if stuck:
            self._failure = ConcurrencyError(
                "every candidate the tuning policy offers is quarantined "
                f"(dead letter: {[str(r) for r in self.dead_letter]})"
            )
        return None

    def _batches_for(
        self,
        state: ColumnTuningState,
        count: int,
        pivots: list[Key],
        runs: int,
    ) -> list[_Batch]:
        """One column's ``count`` planned attempts as up to ``runs``
        batches.

        The ascending ``pivots`` are located in the piece map as it
        stands: that prices each batch (rows of the pieces its pass
        will partition) and, when the column is split, puts the cuts
        between runs of pivots *at piece boundaries*, so sibling
        batches never target the same piece.  No worker runs while a
        plan is made, so the piece maps are read without their locks.
        """
        # [piece start, rows a pass partitions there, slot of its first pivot]
        spans: list[list[int]] = []
        locate = state.index.piece_map.locate
        for slot, value in enumerate(pivots):
            _, start, end, at_pivot = locate(value)
            if not spans or spans[-1][0] != start:
                spans.append([start, 0, slot])
            if not at_pivot and end - start > self.tuner.min_piece_size:
                spans[-1][1] = end - start
        total = sum(rows for _, rows, _ in spans)
        batches: list[_Batch] = []
        first = run_rows = done_rows = 0
        for _, rows, slot in spans:
            closed = len(batches) + 1
            if (
                run_rows
                and closed < runs
                and (done_rows + run_rows) * runs >= total * closed
            ):
                batches.append(
                    _Batch(state, slot - first, pivots[first:slot], run_rows)
                )
                done_rows += run_rows
                first, run_rows = slot, 0
            run_rows += rows
        batches.append(_Batch(state, count - first, pivots[first:], run_rows))
        return batches

    def _draw_pivots(
        self, state: ColumnTuningState, count: int
    ) -> list[Key]:
        """``count`` ascending random pivots from the column's own
        stream."""
        ref = state.ref
        rng = self._pivot_rngs.get(ref)
        if rng is None:
            name = f"{ref.table}.{ref.column}".encode()
            rng = self._pivot_rngs[ref] = np.random.default_rng(
                None if self.seed is None else [self.seed, zlib.crc32(name)]
            )
        return sorted(random_pivots(rng, state.index, count))

    def _release(self, batch: _Batch, effective: int = 0) -> None:
        """Return a finished (or dropped) batch's reservation to the
        ranking, crediting the cracks it made."""
        batch.state.planned -= batch.count
        if effective:
            self.ranking.note_tuning_action(batch.state.ref, effective)

    def _commit(self, slot: int, batch: _Batch, record: CrackPass) -> None:
        """Account for a batch's pass on the clock's current lane
        (``slot``'s): price and log it, count it in the slot's
        statistics and release its reservation."""
        batch.state.index.price_pass(record)
        effective = len(record.fresh)
        stats = self.stats[slot]
        stats.actions_attempted += batch.count
        stats.actions_effective += effective
        self._release(batch, effective)

    # -- the workers ----------------------------------------------------

    def _worker_loop(self, slot: int) -> None:
        line = self._queues[slot]
        while True:
            batch = line.get()
            try:
                if batch is _STOP:
                    return
                try:
                    batch.outcome = self._perform_batch(slot, batch)
                except BaseException as exc:  # noqa: BLE001 - supervised
                    batch.outcome = exc
            finally:
                line.task_done()

    def _perform_batch(self, slot: int, batch: _Batch) -> CrackPass:
        fault, batch.fault = batch.fault, None
        if fault is not None:
            raise fault
        return self._apply_batch(batch)

    def _apply_batch(self, batch: _Batch) -> CrackPass:
        """One batch as one pass; returns its unpriced record."""
        access = LatchedCrackerAccess(batch.state.index)
        return self.tuner.perform_latched(access, batch.pivots)

    # -- supervision ----------------------------------------------------

    def _supervise_crash(
        self, slot: int, batch: _Batch, error: BaseException
    ) -> bool:
        """React to a crashed pass: repair, quarantine, retry.

        The crashed batch's column is re-verified (and rebuilt when
        inconsistent); repeated killers are dead-lettered; the crash
        counts against the slot's budget, and until that runs out the
        same batch -- same pivots, whatever the crashed pass already
        cut is a pivot hit on the retry -- is to be dealt again to the
        slot (returns True).  A batch whose column is now quarantined
        is dropped instead, and its attempts are re-planned on live
        columns.  A crash past the budget is fatal and sticky.
        """
        state = batch.state
        self._verify_and_repair(state)
        crashes = self._crashes.get(state.ref, 0) + 1
        self._crashes[state.ref] = crashes
        threshold = self.supervisor.quarantine_threshold
        if crashes >= threshold and state.ref not in self.dead_letter:
            self.dead_letter.append(state.ref)
            self.crash_log.append(
                f"quarantined {state.ref.table}.{state.ref.column} "
                f"after {crashes} worker crashes"
            )
        restarts = self._restarts.get(slot, 0)
        if all(s.ref in self.dead_letter for s in self.ranking.states()):
            self._failure = ConcurrencyError(
                "every tuning candidate is quarantined "
                f"(dead letter: {[str(r) for r in self.dead_letter]}); "
                f"last crash: {error!r}"
            )
            self._failure.__cause__ = error
        elif restarts >= self.supervisor.max_restarts_per_worker:
            self._failure = error
        else:
            self._restarts[slot] = restarts + 1
            self.restarts_total += 1
        if self._failure is not None:
            self._release(batch)
            return False
        self.crash_log.append(
            f"worker {slot} crashed ({type(error).__name__}: "
            f"{error}); restart #{restarts + 1}"
        )
        if isinstance(error, InjectedFault):
            faults.recovered(
                "workers.perform", f"worker {slot} restarted", hit=error.hit
            )
        if state.ref in self.dead_letter:
            self._release(batch)
            return False
        return True

    def _verify_and_repair(self, state: ColumnTuningState) -> None:
        """Check the crashed column's invariants; rebuild on damage.
        No worker runs meanwhile, so the fault-free answer path
        resumes on a verified column."""
        try:
            state.index.check_invariants()
        except CrackerError:
            state.index.rebuild()
            self.rebuilds_total += 1
            self.crash_log.append(
                f"rebuilt {state.ref.table}.{state.ref.column}: "
                "crash left the piece map inconsistent"
            )

    def supervisor_summary(self) -> dict[str, object]:
        """JSON-ready account of supervision activity, its lists
        sorted."""
        return {
            "restarts": self.restarts_total,
            "rebuilds": self.rebuilds_total,
            "dead_letter": sorted(
                f"{ref.table}.{ref.column}" for ref in self.dead_letter
            ),
            "crashes_per_column": {
                f"{ref.table}.{ref.column}": count
                for ref, count in sorted(
                    self._crashes.items(), key=lambda kv: str(kv[0])
                )
            },
            "log": sorted(self.crash_log),
        }

    def worker_stats(self) -> list[WorkerStats]:
        """Per-worker lifetime statistics, by worker id."""
        return [self.stats[i] for i in range(self.num_workers)]
