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

Four layers cooperate:

* **plans** -- the submitting thread turns an idle window's
  ``actions=N`` into a *window plan*: N policy choices against the
  projected ranking (each planned crack counts as one more piece of
  its column), the chosen columns' random pivots from per-column
  seeded streams, one batch per column -- split at piece boundaries
  when there are fewer columns than workers -- dealt statically over
  the per-worker queues by estimated rows touched.  No two batches of
  a plan target the same piece: the partition-first chunking Alvarez
  et al. measure winning over latch-per-crack "parallel standard
  cracking".  A worker applies a batch as *one* multi-pivot pass
  under its index's lock (:meth:`LatchedCrackerAccess.crack_value`).
  Nothing about a window depends on thread timing -- not even which
  batch an armed ``workers.perform`` fault crashes, which the plan
  decides too;
* **lanes** -- under a :class:`~repro.simtime.clock.SimClock` the pool
  opens a *parallel phase*: each thread's charges accumulate on its
  own lane and the phase advances virtual time by the **maximum**
  lane, so N workers doing W seconds of aggregate refinement cost the
  timeline ~W/N seconds, reproducing the paper's multi-core scaling
  without needing real parallelism under the GIL;
* **statistics** -- each worker thread counts its actions in its
  :class:`WorkerStats`, the counters a window's
  :class:`~repro.holistic.scheduler.TuningReport` is read from;
* **supervision** -- the batch is the supervised unit: a crash
  mid-batch repairs the column, counts toward its quarantine and
  re-enqueues the same batch (same pivots) for the restarted worker.

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
from repro.simtime.clock import Clock, wall_sleep
from repro.storage.catalog import ColumnRef
from repro.storage.dtypes import Key
from repro.util.retry import BackoffPolicy

#: Queue sentinel that tells a worker thread to exit its loop.
_STOP = object()


@dataclass(frozen=True, slots=True)
class SupervisorPolicy:
    """How the pool reacts to worker crashes.

    Args:
        max_restarts_per_worker: restarts a single worker slot may
            consume before its next crash is fatal to the pool.
        quarantine_threshold: crashes attributed to one column before
            its refinement actions are dead-lettered.
        backoff: restart delay schedule (capped exponential, indexed
            by the worker slot's restart count).
    """

    max_restarts_per_worker: int = 8
    quarantine_threshold: int = 3
    backoff: BackoffPolicy = BackoffPolicy(
        base_s=0.001, factor=2.0, cap_s=0.05, max_attempts=64
    )


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


class TuningWorkerPool:
    """N threads applying planned refinement batches.

    Args:
        clock: the shared engine clock; parallel phases are opened on
            it while the pool runs (``SimClock`` lanes make wall-clock
            the max over workers, ``WallClock`` overlaps by itself).
        tape: the kernel's crack tape, shared by the worker threads.
        ranking: the continuous column ranking plans are made against.
        policy: resource-spreading policy (shared, guarded by a lock).
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
        # Worker threads will share this tape: appends must lock.
        tape.mark_concurrent()
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
        self._threads: dict[int, threading.Thread] = {}
        self._idents: dict[int, int] = {}  # clock lane id -> worker id
        #: Guards the policy, the ranking's ``planned`` projections and
        #: the pivot streams: taken once per planning round and once
        #: per completed batch.
        self._policy_lock = threading.Lock()
        self._running = False
        self._failure: BaseException | None = None
        #: Supervision: crashed workers are restarted with capped
        #: exponential backoff; columns whose batches repeatedly kill
        #: workers are quarantined (dead-lettered) after their piece
        #: state is verified and, if inconsistent, rebuilt.
        self.supervisor = SupervisorPolicy()
        self._sleep = wall_sleep  # injectable for deterministic tests
        self._state_lock = threading.Lock()
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
        self._idents = {}
        self._restarts = {}
        self._running = True

    def _spawn_worker(self, worker_id: int) -> threading.Thread:
        thread = threading.Thread(
            target=self._worker_loop,
            args=(worker_id,),
            name=f"tuning-worker-{worker_id}",
            daemon=True,
        )
        self._threads[worker_id] = thread
        thread.start()
        return thread

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
        return self._plan(actions)

    def drain(self) -> None:
        """Block until every submitted batch has been processed.

        Raises:
            ConcurrencyError: re-raising the first *fatal* worker
                failure.  Supervised crashes (restarted workers,
                quarantined columns) drain cleanly; the failure stays
                sticky once raised, so a later ``drain()`` cannot
                silently report success (clear it explicitly with
                :meth:`clear_failure`).
        """
        for worker_id, line in enumerate(self._queues):
            self._join_line(worker_id, line)
        self._check_failure()

    def _join_line(self, worker_id: int, line: queue.Queue) -> None:
        """``line.join()`` that survives an abandoned worker.

        A worker whose crash was fatal (restart budget exhausted,
        every candidate quarantined) is not replaced; its queued
        batches would leave ``join()`` waiting forever.  Once the pool
        is failed and the worker thread is dead, the leftover batches
        are dropped here so drains and stops still terminate -- the
        sticky failure is what reports the loss.
        """
        while True:
            with line.all_tasks_done:
                if line.unfinished_tasks == 0:
                    return
                thread = self._threads.get(worker_id)
                dead = thread is None or not thread.is_alive()
                if not (self._failure is not None and dead):
                    line.all_tasks_done.wait(0.02)
                    continue
            while True:
                try:
                    item = line.get_nowait()
                except queue.Empty:
                    break
                if item is not _STOP:
                    self._release(item)
                line.task_done()

    def stop(self):
        """Drain, join the threads and close the parallel clock phase.

        Returns the phase's :class:`~repro.simtime.clock.ParallelAccount`
        (``None`` if the pool was not running); per-worker ``busy_s``
        statistics are updated from its lanes.

        Raises:
            ConcurrencyError: if a worker thread died.  The phase has
                already been settled by then (``end_parallel`` cannot
                be retried), so the settled account and the updated
                per-worker statistics ride on the error as
                ``error.account`` / ``error.worker_stats`` instead of
                being lost.
        """
        if not self._running:
            return None
        for worker_id, line in enumerate(self._queues):
            self._join_line(worker_id, line)
        for worker_id in self._threads:
            self._queues[worker_id].put(_STOP)
        for thread in list(self._threads.values()):
            thread.join()
        for worker_id, line in enumerate(self._queues):
            self._join_line(worker_id, line)
        self._running = False
        account = self.clock.end_parallel()
        for ident, busy in account.lanes.items():
            worker_id = self._idents.get(ident)
            if worker_id is not None:
                self.stats[worker_id].busy_s += busy
        self._check_failure(account)
        return account

    def _check_failure(self, account=None) -> None:
        # The failure stays sticky: a second drain()/stop() must keep
        # failing until clear_failure() -- silently reporting success
        # after a fatal worker death hid the failure from the caller.
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

        Under the policy lock: one policy choice per attempt against
        the projected ranking, then the random pivots of every chosen
        column from that column's own stream.  Each column becomes one
        batch (more when there are fewer columns than workers, see
        :meth:`_batches_for`), and the batches are dealt largest first
        to the least-loaded worker queue -- static and deterministic,
        so lane balance owes nothing to thread timing.  Each batch's
        ``workers.perform`` fault is drawn here too, in deal order, so
        which batch takes hit N owes nothing to it either.  Returns how
        many attempts were planned: fewer than asked when the projected
        ranking runs out, zero when it had nothing to offer at all.
        """
        with self._policy_lock:
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
            worker_id = loads.index(min(loads))
            loads[worker_id] += batch.weight
            try:
                faults.trip("workers.perform")
            except InjectedFault as fault:
                batch.fault = fault
            self._queues[worker_id].put(batch)
            if worker_id not in self._threads:
                self._spawn_worker(worker_id)
        return sum(count for _, count, _ in shares)

    def _choose_state(self) -> ColumnTuningState | None:
        """Pick the next non-quarantined column, or ``None`` when the
        (projected) ranking is exhausted.  Caller holds the policy lock.

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
        batches never target the same piece.
        """
        # [piece start, rows a pass partitions there, slot of its first pivot]
        spans: list[list[int]] = []
        with state.index.lock:
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
        stream.  Caller holds the policy lock."""
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
        with self._policy_lock:
            batch.state.planned -= batch.count
            if effective:
                self.ranking.note_tuning_action(batch.state.ref, effective)

    # -- the workers ----------------------------------------------------

    def _worker_loop(self, worker_id: int) -> None:
        # Register under the clock's stable lane id (thread idents are
        # recycled by the OS; see Clock.current_lane).
        self._idents[self.clock.current_lane()] = worker_id
        line = self._queues[worker_id]
        while True:
            batch = line.get()
            try:
                if batch is _STOP:
                    return
                if self._failure is None:
                    self._perform_batch(worker_id, batch)
                else:
                    self._release(batch)
            except BaseException as exc:  # noqa: BLE001 - supervised
                # The thread dies (its loop ends here); the supervisor
                # decides whether a replacement takes over its slot and
                # its failed batch.
                self._supervise_crash(worker_id, line, batch, exc)
                return
            finally:
                line.task_done()

    def _perform_batch(self, worker_id: int, batch: _Batch) -> None:
        fault, batch.fault = batch.fault, None
        if fault is not None:
            raise fault
        if batch.state.ref in self.dead_letter:
            # Quarantined after it was planned: the attempts are not
            # spent, so a window re-plans them on live columns.
            self._release(batch)
            return
        effective = self._apply_batch(batch)
        stats = self.stats[worker_id]
        stats.actions_attempted += batch.count
        stats.actions_effective += effective
        self._release(batch, effective)

    def _apply_batch(self, batch: _Batch) -> int:
        """One batch as one pass; returns how many of its actions
        refined anything."""
        access = LatchedCrackerAccess(batch.state.index)
        return self.tuner.perform_latched(access, batch.pivots)

    # -- supervision ----------------------------------------------------

    def _supervise_crash(
        self,
        worker_id: int,
        line: queue.Queue,
        batch: _Batch,
        error: BaseException,
    ) -> None:
        """React to a worker death: repair, quarantine, restart.

        Runs on the dying thread.  The crashed batch's column is
        re-verified (and rebuilt when inconsistent) under the index's
        lock before any replacement worker can touch it; repeated
        killers are
        dead-lettered; the slot is restarted with capped exponential
        backoff and handed the same batch -- same pivots, whatever the
        crashed pass already cut is a pivot hit on the retry -- until
        its budget runs out, at which point the failure becomes fatal
        and sticky.
        """
        state = batch.state
        self._verify_and_repair(state)
        with self._state_lock:
            crashes = self._crashes.get(state.ref, 0) + 1
            self._crashes[state.ref] = crashes
            threshold = self.supervisor.quarantine_threshold
            if crashes >= threshold and state.ref not in self.dead_letter:
                self.dead_letter.append(state.ref)
                self.crash_log.append(
                    f"quarantined {state.ref.table}.{state.ref.column} "
                    f"after {crashes} worker crashes"
                )
            quarantined_all = all(
                s.ref in self.dead_letter for s in self.ranking.states()
            )
            restarts = self._restarts.get(worker_id, 0)
            if quarantined_all:
                self._failure = ConcurrencyError(
                    "every tuning candidate is quarantined "
                    f"(dead letter: {[str(r) for r in self.dead_letter]}); "
                    f"last crash: {error!r}"
                )
                self._failure.__cause__ = error
            elif restarts >= self.supervisor.max_restarts_per_worker:
                self._failure = error
            else:
                self._restarts[worker_id] = restarts + 1
                self.restarts_total += 1
        if self._failure is not None or not self._running:
            self._release(batch)
            return
        delay = self.supervisor.backoff.delay_s(restarts)
        if delay > 0:
            self._sleep(delay)
        self.crash_log.append(
            f"worker {worker_id} crashed ({type(error).__name__}: "
            f"{error}); restart #{restarts + 1}"
        )
        # The batch is re-enqueued before this thread's task_done (our
        # caller's finally) so a concurrent drain never observes the
        # line transiently empty between death and retry.  If its
        # column was just quarantined the replacement drops it.
        self._spawn_worker(worker_id)
        line.put(batch)
        if isinstance(error, InjectedFault):
            # Credit the very event this batch carried, not the oldest
            # unrecovered one: batches crash in thread-timing order.
            faults.recovered(
                "workers.perform",
                f"worker {worker_id} restarted",
                hit=error.hit,
            )

    def _verify_and_repair(self, state: ColumnTuningState) -> None:
        """Check the crashed column's invariants; rebuild on damage.

        Check and rebuild are one critical section under the index's
        lock, so no replacement worker sees intermediate state; then
        the fault-free answer path resumes.
        """
        with state.index.lock:
            try:
                state.index.check_invariants()
            except CrackerError:
                state.index.rebuild()
                with self._state_lock:
                    self.rebuilds_total += 1
                self.crash_log.append(
                    f"rebuilt {state.ref.table}.{state.ref.column}: "
                    "crash left the piece map inconsistent"
                )

    def supervisor_summary(self) -> dict[str, object]:
        """JSON-ready account of supervision activity; the lists are
        sorted, as worker threads append to them in timing order."""
        with self._state_lock:
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
