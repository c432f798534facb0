"""The holistic indexing kernel -- the paper's contribution.

One strategy that unifies the three predecessors:

* **adaptive**: selects crack the touched column, as in database
  cracking (queries are hints on how to store the data);
* **online**: a continuous monitor records every query; statistics
  feed a continuously-maintained ranking of candidate columns;
* **offline**: idle windows -- a-priori or between query bursts -- are
  spent on auxiliary refinement actions spread over the candidate
  columns by a policy, instead of all-or-nothing full builds.

Plus the two special cases of §3: with **no knowledge**, the catalog
bootstraps the candidate set; with **no idle time**, hot columns get
extra random cracks injected during query processing itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.cracking.index import CrackerIndex
from repro.cracking.tape import CrackTape
from repro.engine.plan import AccessPath
from repro.engine.query import RangeQuery
from repro.engine.plan import ColumnWindow
from repro.engine.strategies import (
    BatchExecution,
    IdleOutcome,
    IndexingStrategy,
    StrategyFeatures,
    crack_windows,
)
from repro.errors import ConfigError
from repro.holistic.policies import TuningPolicy, make_policy
from repro.holistic.ranking import ColumnRanking
from repro.holistic.scheduler import IdleScheduler, TuningReport
from repro.holistic.tuner import AuxiliaryTuner
from repro.offline.whatif import WorkloadStatement
from repro.online.monitor import WorkloadMonitor
from repro.storage.catalog import ColumnRef
from repro.storage.database import Database
from repro.storage.dtypes import Key
from repro.storage.views import SelectionResult


@dataclass(slots=True)
class HolisticConfig:
    """Tuning knobs of the holistic kernel.

    Attributes:
        policy: resource-spreading policy (``round_robin``, ``ranked``,
            ``weighted_random``).
        cache_target_elements: explicit cache-fit piece size in rows;
            ``None`` derives it from the cost model (cache bytes /
            element bytes, de-projected by the model's scale so reduced
            runs behave like paper-scale runs).
        hot_column_threshold: queries on a column before the no-idle
            boost kicks in; ``0`` disables the boost.
        hot_boost_cracks: extra random cracks injected per boosted
            query.
        batch_tuning: apply each *serial* idle window's actions as
            per-column multi-pivot crack passes instead of
            one-at-a-time cracks (the paper's "multiple tuning actions
            in one go"), the budget split evenly over the unrefined
            columns.  Has no effect with ``num_workers >= 1``: worker
            windows are always planned as per-column batches, spread
            by the policy.
        seed: seed for the tuner's random generator.
        num_workers: parallel tuning workers draining idle windows
            (the paper's idle-core claim).  ``0`` -- the default --
            keeps the serial scheduler and reproduces pre-worker
            behaviour bit-for-bit; ``>= 1`` routes idle windows
            through a :class:`repro.holistic.workers.TuningWorkerPool`:
            each window is planned as per-column batches that the
            workers apply as latched multi-pivot passes.
    """

    policy: str = "round_robin"
    cache_target_elements: int | None = None
    hot_column_threshold: int = 0
    hot_boost_cracks: int = 1
    batch_tuning: bool = False
    seed: int | None = 42
    num_workers: int = 0

    def __post_init__(self) -> None:
        if self.hot_column_threshold < 0:
            raise ConfigError(
                "hot_column_threshold must be >= 0, got "
                f"{self.hot_column_threshold}"
            )
        if self.hot_boost_cracks < 0:
            raise ConfigError(
                f"hot_boost_cracks must be >= 0: {self.hot_boost_cracks}"
            )
        if self.num_workers < 0:
            raise ConfigError(
                f"num_workers must be >= 0, got {self.num_workers}"
            )


class HolisticKernel(IndexingStrategy):
    """Offline, online and adaptive indexing in the same kernel."""

    name = "holistic"

    def __init__(
        self, db: Database, config: HolisticConfig | None = None
    ) -> None:
        super().__init__(db)
        self.config = config if config is not None else HolisticConfig()
        model = db.cost_model
        if self.config.cache_target_elements is not None:
            target = self.config.cache_target_elements
        else:
            target = max(
                1, int(model.constants.cache_elements() / model.scale)
            )
        self.cache_target_elements = target
        self.monitor = WorkloadMonitor(db.catalog)
        self.ranking = ColumnRanking(target)
        self.policy: TuningPolicy = make_policy(
            self.config.policy, seed=self.config.seed
        )
        self.tuner = AuxiliaryTuner(
            seed=self.config.seed,
            min_piece_size=target,
        )
        self.scheduler = IdleScheduler(
            self.clock, self.ranking, self.policy, self.tuner
        )
        self.tape = CrackTape()
        self.indexes: dict[ColumnRef, CrackerIndex] = {}
        self._hints: list[WorkloadStatement] = []
        self.idle_windows = 0
        self.boost_cracks_applied = 0
        if self.config.num_workers > 0:
            from repro.holistic.workers import TuningWorkerPool

            self.worker_pool: TuningWorkerPool | None = TuningWorkerPool(
                clock=self.clock,
                tape=self.tape,
                ranking=self.ranking,
                policy=self.policy,
                num_workers=self.config.num_workers,
                min_piece_size=target,
                seed=self.config.seed,
            )
        else:
            self.worker_pool = None

    # -- index management ---------------------------------------------------

    def index_for(self, ref: ColumnRef) -> CrackerIndex:
        """Get or lazily create the cracker index on ``ref``."""
        index = self.indexes.get(ref)
        if index is None:
            column = self.db.catalog.column(ref)
            index = CrackerIndex(column, clock=self.clock, tape=self.tape)
            self.indexes[ref] = index
            self.ranking.register(ref, index)
            if self.worker_pool is not None:
                self.worker_pool.register_index(ref, index)
        return index

    def _candidate_refs(self) -> list[ColumnRef]:
        """Columns worth tuning, by decreasing knowledge quality.

        Preference order implements §3: explicit workload hints, then
        monitored activity, then -- the "no knowledge" case -- the
        whole catalog.
        """
        if self._hints:
            seen: dict[ColumnRef, None] = {}
            for statement in self._hints:
                seen.setdefault(statement.ref, None)
            return list(seen)
        observed = self.monitor.observed_columns()
        if observed:
            return observed
        return [entry.ref for entry in self.db.catalog.entries()]

    def _register_candidates(self) -> None:
        for ref in self._candidate_refs():
            self.index_for(ref)
        if self._hints:
            weights: dict[ColumnRef, float] = {}
            for statement in self._hints:
                weights[statement.ref] = (
                    weights.get(statement.ref, 0.0) + statement.weight
                )
            for ref, weight in weights.items():
                self.ranking.register(ref, self.index_for(ref), weight)

    # -- the strategy interface ----------------------------------------------

    def hint_workload(self, statements: list[WorkloadStatement]) -> None:
        self._hints = list(statements)

    def select(self, query: RangeQuery) -> SelectionResult:
        # Not inherited: perfbench/layers.py wraps HolisticKernel.select
        # by name.
        return super().select(query)

    def select_keys(
        self, query: RangeQuery, low: Key, high: Key
    ) -> SelectionResult:
        index = self.index_for(query.ref)
        self.monitor.record(
            query.ref, query.low, query.high, self.clock.now()
        )
        self.ranking.note_query(query.ref)
        if self.worker_pool is not None and self.worker_pool.is_running:
            # Workers are racing us: take piece latches for the pieces
            # this select may crack, exactly like the workers do.
            access = self.worker_pool.register_index(query.ref, index)
            result = access.select_range(low, high)
        else:
            result = index.select_keys(low, high)
        self._maybe_boost_hot_range(query, index)
        return result

    def select_empty(self, query: RangeQuery) -> SelectionResult:
        # What select_keys notes; the index first, as there: it
        # registers the column with the ranking.
        self.index_for(query.ref)
        self.monitor.record(
            query.ref, query.low, query.high, self.clock.now()
        )
        self.ranking.note_query(query.ref)
        return super().select_empty(query)

    def begin_batch(
        self,
        queries: Sequence[RangeQuery],
        windows: list[ColumnWindow],
    ) -> BatchExecution | None:
        """Shared cracking per column plus deferred bookkeeping.

        Ineligible -- falling back to sequential execution -- when
        tuning workers are racing foreground queries (selects must go
        through piece latches) or the no-idle hot boost is active
        (boost cracks mid-window change what later queries see, so
        their order must stay sequential).
        """
        if self.worker_pool is not None and self.worker_pool.is_running:
            return None
        if (
            self.config.hot_column_threshold > 0
            and self.config.hot_boost_cracks > 0
        ):
            return None
        return self.batch_execution(
            crack_windows(self.index_for, windows, len(queries))
        )

    def batch_execution(self, slots: list) -> BatchExecution:
        """The window execution replaying query ``i`` of a window on
        ``slots[i]``, its column's crack replay context and its
        normalised bounds, with the kernel's statistics deferred to the
        window's end (see :class:`_HolisticBatchExecution`)."""
        return _HolisticBatchExecution(self, slots)

    def _maybe_boost_hot_range(
        self, query: RangeQuery, index: CrackerIndex
    ) -> None:
        """The "no idle time" path: extra cracks on hot ranges."""
        threshold = self.config.hot_column_threshold
        if threshold <= 0 or self.config.hot_boost_cracks <= 0:
            return
        if not self.monitor.is_column_hot(query.ref, threshold):
            return
        if index.average_piece_size() <= self.cache_target_elements:
            return
        hot_ranges = self.monitor.hot_ranges(query.ref, threshold)
        target = None
        for low, high, _count in hot_ranges:
            if low < query.high and query.low < high:
                target = (low, high)
                break
        if target is None:
            return
        access = None
        if self.worker_pool is not None and self.worker_pool.is_running:
            access = self.worker_pool.register_index(query.ref, index)
        for _ in range(self.config.hot_boost_cracks):
            if self.tuner.crack_in_hot_range(index, *target, access=access):
                self.boost_cracks_applied += 1

    def exploit_idle(
        self,
        budget_s: float | None = None,
        actions: int | None = None,
    ) -> IdleOutcome:
        """Spend an idle window on auxiliary refinements.

        Raises:
            ConfigError: if neither a budget nor an action count is
                given.
        """
        if budget_s is None and actions is None:
            raise ConfigError(
                "idle window needs a time budget or an action count"
            )
        self._register_candidates()
        self.idle_windows += 1
        if self.worker_pool is not None:
            report = self.worker_pool.run_window(
                actions=actions, budget_s=budget_s
            )
            self.scheduler.lifetime.merge(report)
            note = (
                f"{report.actions_effective}/{report.actions_attempted} "
                f"auxiliary actions on {report.workers} workers, "
                f"{report.stalls} stalls ({report.stop_reason})"
            )
        elif actions is not None:
            if self.config.batch_tuning:
                report = self.scheduler.run_actions_batched(actions)
            else:
                report = self.scheduler.run_actions(actions)
            note = (
                f"{report.actions_effective}/{report.actions_attempted} "
                f"auxiliary actions ({report.stop_reason})"
            )
        else:
            report = self.scheduler.run_budget(budget_s)
            note = (
                f"{report.actions_effective}/{report.actions_attempted} "
                f"auxiliary actions ({report.stop_reason})"
            )
        return IdleOutcome(
            consumed_s=report.consumed_s,
            actions_done=report.actions_effective,
            blocking=False,
            note=note,
        )

    def access_path(self, query: RangeQuery) -> AccessPath:
        return AccessPath.CRACKER

    def features(self) -> StrategyFeatures:
        return StrategyFeatures(
            name=self.name,
            statistical_analysis=True,
            idle_a_priori=True,
            idle_during_workload=True,
            incremental_indexing=True,
            workload="dynamic",
        )

    # -- durability -----------------------------------------------------------

    def attach_checkpointer(self, checkpointer) -> None:
        """Let idle windows spend cycles on durability.

        ``checkpointer`` (see
        :class:`repro.persist.manager.IncrementalCheckpointer`) becomes
        a rankable auxiliary action: the serial scheduler consults it
        before every policy choice and, when a checkpoint is due, one
        idle action is spent writing an incremental snapshot
        generation instead of a crack.  Pass ``None`` to detach.
        """
        self.scheduler.checkpointer = checkpointer

    # -- worker lifecycle -----------------------------------------------------

    def _require_pool(self):
        if self.worker_pool is None:
            raise ConfigError(
                "kernel has no worker pool; configure num_workers >= 1"
            )
        return self.worker_pool

    def start_workers(self) -> None:
        """Start the tuning workers so they race foreground queries.

        While running, foreground selects and idle windows go through
        piece latches; tuning actions submitted with
        :meth:`submit_tuning` drain in the background.

        Raises:
            ConfigError: if the kernel was configured without workers.
        """
        self._require_pool().start()

    def submit_tuning(self, actions: int) -> None:
        """Queue ``actions`` auxiliary refinements on running workers.

        Raises:
            ConfigError: without a running worker pool.
        """
        self._register_candidates()
        self._require_pool().submit(actions)

    def drain_workers(self) -> None:
        """Block until all queued tuning actions are done.

        Raises:
            ConfigError: if the kernel was configured without workers.
        """
        self._require_pool().drain()

    def stop_workers(self) -> None:
        """Drain, stop the workers and fold their time into the clock.

        Raises:
            ConfigError: if the kernel was configured without workers.
        """
        self._require_pool().stop()

    # -- introspection ---------------------------------------------------------

    def tuning_summary(self) -> TuningReport:
        """Lifetime tuning statistics across all idle windows."""
        return self.scheduler.lifetime


class _HolisticBatchExecution:
    """Window execution for the kernel: shared cracks, deferred stats.

    Each query replays on its column's crack context, as in
    :class:`~repro.engine.strategies.CrackerBatchExecution`; the
    kernel's continuous statistics -- monitor observations and ranking
    query counts -- are collected with their exact sequential
    timestamps during the replay and applied in one
    :meth:`WorkloadMonitor.note_many` / :meth:`ColumnRanking.note_queries`
    call per column at window end.  Nothing reads them mid-window
    (the hot boost, the only mid-query reader, disables batching), so
    the deferred state is indistinguishable from sequential updates.
    """

    __slots__ = ("_kernel", "_slots", "_noted", "_acc")

    def __init__(self, kernel: HolisticKernel, slots: list) -> None:
        self._kernel = kernel
        self._slots = slots
        #: Per context (column), in first-replay order: the column's
        #: ref and its observed lows, highs and timestamps.
        self._noted: dict = {}
        self._acc = None

    def bind(self, accountant) -> None:
        self._acc = accountant
        for context in dict.fromkeys(context for context, _ in self._slots):
            context.bind(accountant)

    def replay(self, slot: int, query: RangeQuery) -> SelectionResult:
        # The per-query overhead is charged *before* the timestamp --
        # the sequential order (session charges, then the kernel
        # records the observation).
        acc = self._acc
        acc.charge_query()
        context, bounds = self._slots[slot]
        noted = self._noted.get(context)
        if noted is None:
            noted = self._noted[context] = (query.ref, [], [], [])
        noted[1].append(query.low)
        noted[2].append(query.high)
        noted[3].append(acc.now)
        if bounds is None:
            return context.empty()
        return context.replay(*bounds)

    def finish(self) -> None:
        monitor = self._kernel.monitor
        ranking = self._kernel.ranking
        for ref, lows, highs, stamps in self._noted.values():
            monitor.note_many(ref, lows, highs, stamps)
            ranking.note_queries(ref, len(stamps))
