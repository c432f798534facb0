"""Parallel idle-time tuning workers: the paper's idle-core claim.

The paper's headline argument is that modern machines have idle CPU
cores *while queries run*, and that a holistic kernel should spend
them on continuous index refinement -- "multiple tuning actions in one
go" where possible.  This module provides that machinery: a
:class:`TuningWorkerPool` of real ``threading`` workers that drain
auxiliary refinement concurrently -- with each other and with
foreground query processing -- using the piece-level read/write latches
of :mod:`repro.cracking.concurrency`, following the recipes of
"Concurrency Control for Adaptive Indexing" (Graefe et al.) and "Main
Memory Adaptive Indexing for Multi-core Systems" (Alvarez et al.).

Five layers cooperate:

* **plans** -- the submitting thread turns an idle window's
  ``actions=N`` into a *window plan*: N policy choices against the
  projected ranking (each planned crack counts as one more piece of
  its column), the chosen columns' random pivots from per-column
  seeded streams, one batch per column -- split at piece boundaries
  when there are fewer columns than workers -- dealt statically over
  the per-worker queues by estimated rows touched.  No two batches of
  a plan target the same piece: the partition-first chunking Alvarez
  et al. measure winning over latch-per-crack "parallel standard
  cracking".  Nothing about a window depends on thread timing;
* **latches** -- a worker applies a batch as *one* latched multi-pivot
  pass (:meth:`LatchedCrackerAccess.crack_value`), so latches only
  arbitrate against foreground queries and overlapping ``submit``s;
  conflicting accesses wait and are counted as contention stalls on
  the crack tape;
* **lanes** -- under a :class:`~repro.simtime.clock.SimClock` the pool
  opens a *parallel phase*: each thread's charges accumulate on its
  own lane and the phase advances virtual time by the **maximum**
  lane, so N workers doing W seconds of aggregate refinement cost the
  timeline ~W/N seconds, reproducing the paper's multi-core scaling
  without needing real parallelism under the GIL;
* **attribution** -- every tape record carries the id of the worker
  that produced it, and per-worker stalls/actions are reported in the
  window's :class:`~repro.holistic.scheduler.TuningReport`;
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
from dataclasses import dataclass, field

import numpy as np

from repro import faults
from repro.analysis import witness
from repro.cracking.concurrency import LatchedCrackerAccess, PieceLatchTable
from repro.cracking.index import CrackerIndex
from repro.cracking.tape import CrackTape
from repro.errors import ConcurrencyError, ConfigError, CrackerError
from repro.holistic.policies import TuningPolicy
from repro.holistic.ranking import ColumnRanking, ColumnTuningState
from repro.holistic.scheduler import TuningReport
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
    stalls: int = 0
    busy_s: float = 0.0


@dataclass(slots=True)
class _Window:
    """Aggregates of the idle window currently being drained."""

    attempted: int = 0
    effective: int = 0
    per_column: dict[ColumnRef, int] = field(default_factory=dict)
    per_worker: dict[int, int] = field(default_factory=dict)


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


class TuningWorkerPool:
    """N threads applying planned refinement batches under piece latches.

    Args:
        clock: the shared engine clock; parallel phases are opened on
            it while the pool runs (``SimClock`` lanes make wall-clock
            the max over workers, ``WallClock`` overlaps by itself).
        tape: the kernel's crack tape; receives worker attribution and
            stall counts.
        ranking: the continuous column ranking plans are made against.
        policy: resource-spreading policy (shared, guarded by a lock).
        num_workers: worker thread count (>= 1).
        min_piece_size: cache-fit stopping criterion, in rows.
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
        min_piece_size: int = 2,
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
        self.min_piece_size = min_piece_size
        self.seed = seed
        self.stats: dict[int, WorkerStats] = {
            i: WorkerStats(worker_id=i) for i in range(num_workers)
        }
        self._tuners = [
            AuxiliaryTuner(min_piece_size=min_piece_size)
            for _ in range(num_workers)
        ]
        self._pivot_rngs: dict[ColumnRef, np.random.Generator] = {}
        self._accesses: dict[ColumnRef, LatchedCrackerAccess] = {}
        self._access_lock = threading.Lock()
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
        self._window_lock = threading.Lock()
        self._window = _Window()
        self._running = False
        self._failure: BaseException | None = None
        self.windows_run = 0
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

    # -- index registration --------------------------------------------

    def register_index(
        self, ref: ColumnRef, index: CrackerIndex
    ) -> LatchedCrackerAccess:
        """Create (or return) the latched access facade for ``ref``.

        Each index gets its own latch table: piece positions of
        different columns live in different spaces.
        """
        with self._access_lock:
            access = self._accesses.get(ref)
            if access is None:
                table = PieceLatchTable(
                    witness_key=f"{ref.table}.{ref.column}"
                )
                access = LatchedCrackerAccess(index, table)
                self._accesses[ref] = access
            if self._running:
                witness.arm(access.index, access.table)
            return access

    # -- lifecycle ------------------------------------------------------

    @property
    def is_running(self) -> bool:
        return self._running

    def start(self) -> None:
        """Open a parallel clock phase and accept batches.

        A worker's thread is spawned when its queue gets its first
        batch, so a window that finds nothing to refine costs no
        thread.  Idempotent while running.
        """
        if self._running:
            return
        self._failure = None
        if hasattr(self.clock, "begin_parallel"):
            self.clock.begin_parallel()
        self._threads = {}
        self._idents = {}
        self._restarts = {}
        self._running = True
        with self._access_lock:
            # Latch-sanitizer scope: while workers race these indexes,
            # every mutation must arrive under its covering latch.
            for access in self._accesses.values():
                witness.arm(access.index, access.table)

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

    def submit(self, actions: int) -> None:
        """Plan ``actions`` refinement attempts and hand the batches to
        the workers (fewer when the projected ranking runs out first).

        Raises:
            ConfigError: if the pool is not running or ``actions`` < 0.
        """
        if not self._running:
            raise ConfigError("worker pool is not running; call start()")
        if actions < 0:
            raise ConfigError(f"actions must be >= 0, got {actions}")
        self._plan(actions)

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
        (or ``None`` on clocks without parallel accounting); per-worker
        ``busy_s`` statistics are updated from its lanes.

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
        with self._access_lock:
            for access in self._accesses.values():
                witness.disarm(access.index)
        account = None
        if hasattr(self.clock, "end_parallel"):
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
        # after a fatal worker death was a real bug (ISSUE 8).
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

        Mirrors the serial :class:`IdleScheduler` semantics.  An action
        count is planned in full against the projected ranking and
        drained; degenerate pivots make the projection optimistic, so
        the window keeps planning rounds until the attempts are spent
        or a round finds the *actual* ranking with nothing left.  A
        time budget is checked between rounds of ``num_workers``
        attempts, so the last round may slightly overshoot.  The
        window report's ``consumed_s`` is the parallel elapsed time
        (max over worker lanes), and ``busy_s`` the aggregate work.

        If the pool is not already running the window owns the whole
        lifecycle (start, drain, stop); a pool started explicitly --
        e.g. to race workers against foreground queries -- stays
        running afterwards.

        Raises:
            ConfigError: if neither an action count nor a budget is
                given, or the given one is negative.
        """
        if actions is None and budget_s is None:
            raise ConfigError(
                "a worker window needs an action count or a time budget"
            )
        if actions is not None and actions < 0:
            raise ConfigError(f"actions must be >= 0, got {actions}")
        if budget_s is not None and budget_s < 0:
            raise ConfigError(f"budget must be >= 0, got {budget_s}")
        owns_lifecycle = not self._running
        self.start()
        # Clocks without parallel accounting (bare Clock protocol
        # implementations) fall back to plain now() deltas, so time
        # budgets still terminate.
        lanes = hasattr(self.clock, "parallel_elapsed")
        now_before = self.clock.now()
        elapsed_before = self._parallel_elapsed()
        busy_before = self._parallel_busy()
        stalls_before = self.tape.stall_count()

        def elapsed() -> float:
            if lanes:
                return self._parallel_elapsed() - elapsed_before
            return self.clock.now() - now_before

        with self._window_lock:
            self._window = _Window()
            window = self._window

        def attempts_left() -> int:
            if actions is not None:
                return actions - window.attempted
            return self.num_workers if elapsed() < budget_s else 0

        # Batches of an overlapping submit() settle first, so every
        # round here starts from the actual ranking: a round that can
        # plan nothing has then found it exhausted.
        self.drain()
        exhausted = False
        while not exhausted and (attempts := attempts_left()) > 0:
            exhausted = self._plan(attempts) == 0
            self.drain()
        consumed = elapsed()
        busy = self._parallel_busy() - busy_before if lanes else consumed
        if owns_lifecycle:
            self.stop()
        report = TuningReport(
            actions_attempted=window.attempted,
            actions_effective=window.effective,
            consumed_s=consumed,
            per_column=dict(window.per_column),
            stop_reason=(
                "all candidates refined"
                if exhausted
                else (
                    "action budget exhausted"
                    if actions is not None
                    else "time budget exhausted"
                )
            ),
            per_worker=dict(window.per_worker),
            stalls=self.tape.stall_count() - stalls_before,
            busy_s=busy,
            workers=self.num_workers,
        )
        self.windows_run += 1
        return report

    def _parallel_elapsed(self) -> float:
        if hasattr(self.clock, "parallel_elapsed"):
            return self.clock.parallel_elapsed()
        return 0.0

    def _parallel_busy(self) -> float:
        if hasattr(self.clock, "parallel_busy"):
            return self.clock.parallel_busy()
        return 0.0

    # -- planning -------------------------------------------------------

    def _plan(self, attempts: int) -> int:
        """Plan ``attempts`` refinements and enqueue them as batches.

        Under the policy lock: one policy choice per attempt against
        the projected ranking, then the random pivots of every chosen
        column from that column's own stream.  Each column becomes one
        batch (more when there are fewer columns than workers, see
        :meth:`_batches_for`), and the batches are dealt largest first
        to the least-loaded worker queue -- static and deterministic,
        so lane balance owes nothing to thread timing.  Returns how
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
        exact bug class ISSUE 8's satellite fixed for dead workers --
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
                if not at_pivot and end - start > self.min_piece_size:
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
        # recycled by the OS; see SimClock.current_lane).
        if hasattr(self.clock, "current_lane"):
            self._idents[self.clock.current_lane()] = worker_id
        else:
            self._idents[threading.get_ident()] = worker_id
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
        state = batch.state
        if state.ref in self.dead_letter:
            # Quarantined after it was planned: the attempts are not
            # spent, so a window re-plans them on live columns.
            self._release(batch)
            return
        access = self.register_index(state.ref, state.index)
        stalls_before = self.tape.stall_count(worker_id)
        with self.tape.attribution(worker_id):
            effective = self._apply_batch(worker_id, batch, access)
        stats = self.stats[worker_id]
        stats.actions_attempted += batch.count
        stats.actions_effective += effective
        stats.stalls += self.tape.stall_count(worker_id) - stalls_before
        self._release(batch, effective)
        with self._window_lock:
            window = self._window
            window.attempted += batch.count
            if effective:
                window.effective += effective
                window.per_column[state.ref] = (
                    window.per_column.get(state.ref, 0) + effective
                )
                window.per_worker[worker_id] = (
                    window.per_worker.get(worker_id, 0) + effective
                )

    def _apply_batch(
        self,
        worker_id: int,
        batch: _Batch,
        access: LatchedCrackerAccess,
    ) -> int:
        """One batch under the appropriate latches; returns how many of
        its actions refined anything."""
        faults.trip("workers.perform")
        return self._tuners[worker_id].perform_latched(
            access, batch.count, batch.pivots
        )

    # -- supervision ----------------------------------------------------

    def _supervise_crash(
        self,
        worker_id: int,
        line: queue.Queue,
        batch: _Batch,
        error: BaseException,
    ) -> None:
        """React to a worker death: repair, quarantine, restart.

        Runs on the dying thread, after its latches unwound.  The
        crashed batch's column is re-verified (and rebuilt when
        inconsistent) under the index's exclusive latch before any
        replacement worker can touch it; repeated killers are
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
        # Credit whichever fault point the absorbed error came from
        # (an injected crash carries its point; genuine errors default
        # to the worker action site).
        point = getattr(error, "point", None)
        faults.recovered(  # repro: allow[fault-coverage] -- dynamic credit: the name travels on the injected error, and every value it can carry is a registered literal at its trip site

            point if isinstance(point, str) else "workers.perform",
            f"worker {worker_id} restarted",
        )

    def _verify_and_repair(self, state: ColumnTuningState) -> None:
        """Check the crashed column's invariants; rebuild on damage.

        Holds the whole-index latch so no replacement worker or query
        sees intermediate state -- the piece is verified and repaired
        *before* the latch is released, then the fault-free answer path
        resumes.
        """
        access = self.register_index(state.ref, state.index)
        with access.exclusive():
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
        """JSON-ready account of supervision activity."""
        with self._state_lock:
            return {
                "restarts": self.restarts_total,
                "rebuilds": self.rebuilds_total,
                "dead_letter": [
                    f"{ref.table}.{ref.column}" for ref in self.dead_letter
                ],
                "crashes_per_column": {
                    f"{ref.table}.{ref.column}": count
                    for ref, count in sorted(
                        self._crashes.items(), key=lambda kv: str(kv[0])
                    )
                },
                "log": list(self.crash_log),
            }

    def worker_stats(self) -> list[WorkerStats]:
        """Per-worker lifetime statistics, by worker id."""
        return [self.stats[i] for i in range(self.num_workers)]
