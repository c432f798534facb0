"""The holistic indexing kernel -- the paper's contribution.

One strategy that unifies the three predecessors:

* **adaptive**: selects crack the touched column, as in database
  cracking (queries are hints on how to store the data) -- the kernel
  *is* :class:`~repro.engine.strategies.AdaptiveStrategy` (standard
  cracking), and keeps only what it adds;
* **online**: a continuous monitor counts every query; the counts
  feed a continuously-maintained ranking of candidate columns;
* **offline**: idle windows -- a-priori or between query bursts -- are
  spent on auxiliary refinement actions spread over the candidate
  columns by a policy, instead of all-or-nothing full builds.

With **no knowledge** (§3's first special case), the catalog
bootstraps the candidate set.  §3's second one, extra random cracks on
hot ranges when there is **no idle time**, is not implemented: measured
on saturated workloads it cost more response time than plain adaptive
cracking in every run, so without idle time the kernel is adaptive
cracking by inheritance plus the monitor's and the ranking's counters
(docs/ARCHITECTURE.md, "The no-idle case").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.cracking.index import CrackerIndex
from repro.cracking.tape import CrackTape
from repro.engine.plan import ColumnWindow
from repro.engine.query import RangeQuery
from repro.engine.strategies import (
    AdaptiveStrategy,
    IdleOutcome,
    StrategyFeatures,
    WindowSlot,
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
    batch_tuning: bool = False
    seed: int | None = 42
    num_workers: int = 0

    def __post_init__(self) -> None:
        if self.num_workers < 0:
            raise ConfigError(
                f"num_workers must be >= 0, got {self.num_workers}"
            )


class HolisticKernel(AdaptiveStrategy):
    """Offline, online and adaptive indexing in the same kernel:
    standard adaptive cracking that counts every query and spends idle
    windows on the columns its ranking picks."""

    name = "holistic"

    def __init__(
        self, db: Database, config: HolisticConfig | None = None
    ) -> None:
        config = config if config is not None else HolisticConfig()
        super().__init__(db, seed=config.seed)
        self.config = config
        target = self.config.cache_target_elements
        if target is None:
            target = max(1, db.cost_model.cache_rows())
        self.cache_target_elements = target
        self.monitor = WorkloadMonitor()
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
        self.lifetime = TuningReport()
        self.tape = CrackTape()
        self._hints: list[WorkloadStatement] = []
        self.idle_windows = 0
        if self.config.num_workers > 0:
            from repro.holistic.workers import TuningWorkerPool

            self.worker_pool: TuningWorkerPool | None = TuningWorkerPool(
                clock=self.clock,
                tape=self.tape,
                ranking=self.ranking,
                policy=self.policy,
                num_workers=self.config.num_workers,
                tuner=self.tuner,
                seed=self.config.seed,
            )
        else:
            self.worker_pool = None

    # -- index management ---------------------------------------------------

    def index_for(self, ref: ColumnRef) -> CrackerIndex:
        """Get or lazily create the cracker index on ``ref``."""
        # Not inherited: perfbench/layers.py wraps it by name.
        index = self.indexes.get(ref)
        if index is None:
            column = self.db.catalog.column(ref)
            index = CrackerIndex(column, clock=self.clock, tape=self.tape)
            self.adopt_index(ref, index)
        return index

    def adopt_index(self, ref: ColumnRef, index: CrackerIndex) -> None:
        """Add ``index`` to the ranking and the worker pool too."""
        super().adopt_index(ref, index)
        self.ranking.register(ref, index)
        if self.worker_pool is not None:
            self.worker_pool.register_index(ref, index)

    def _register_candidates(self) -> None:
        """Index the columns worth tuning, by decreasing knowledge
        quality.

        Preference order implements §3: explicit workload hints (a
        column weighted by the sum of its statements' weights), then
        monitored activity, then -- the "no knowledge" case -- the
        whole catalog.
        """
        if self._hints:
            weights: dict[ColumnRef, float] = {}
            for statement in self._hints:
                weights[statement.ref] = (
                    weights.get(statement.ref, 0.0) + statement.weight
                )
            for ref, weight in weights.items():
                self.ranking.register(ref, self.index_for(ref), weight)
            return
        refs = self.monitor.observed_columns() or [
            entry.ref for entry in self.db.catalog.entries()
        ]
        for ref in refs:
            self.index_for(ref)

    # -- the strategy interface ----------------------------------------------

    def hint_workload(self, statements: list[WorkloadStatement]) -> None:
        self._hints = list(statements)

    def select(self, query: RangeQuery) -> SelectionResult:
        # Not inherited: perfbench/layers.py wraps it by name.
        return super().select(query)

    def select_keys(
        self, query: RangeQuery, low: Key, high: Key
    ) -> SelectionResult:
        index = self.index_for(query.ref)
        self.monitor.record(query.ref)
        self.ranking.note_query(query.ref)
        if self.worker_pool is not None and self.worker_pool.is_running:
            # Workers are racing us: take piece latches for the pieces
            # this select may crack, exactly like the workers do.
            access = self.worker_pool.register_index(query.ref, index)
            return access.select_range(low, high)
        return index.select_keys(low, high)

    def select_empty(self, query: RangeQuery) -> SelectionResult:
        # What select_keys notes; the index first, as there: it
        # registers the column with the ranking.
        self.index_for(query.ref)
        self.monitor.record(query.ref)
        self.ranking.note_query(query.ref)
        return super().select_empty(query)

    def begin_batch(
        self,
        queries: Sequence[RangeQuery],
        windows: list[ColumnWindow],
    ) -> list[WindowSlot] | None:
        """Adaptive cracking's window, or ``None`` -- the sequential
        path, through piece latches -- while tuning workers race."""
        # Not inherited: perfbench/layers.py wraps it by name.
        if self.worker_pool is not None and self.worker_pool.is_running:
            return None
        return super().begin_batch(queries, windows)

    def note_window(self, queries: Sequence[RangeQuery]) -> None:
        """Count a window's replayed reads: one
        :meth:`WorkloadMonitor.note_many` and one
        :meth:`ColumnRanking.note_queries` call a column, in order of
        first appearance.  Nothing reads the counts mid-window, so the
        deferred counts are indistinguishable from sequential ones."""
        counts: dict[ColumnRef, int] = {}
        for query in queries:
            ref = query.ref
            counts[ref] = counts.get(ref, 0) + 1
        monitor = self.monitor
        ranking = self.ranking
        for ref, count in counts.items():
            monitor.note_many(ref, count)
            ranking.note_queries(ref, count)

    def exploit_idle(
        self,
        budget_s: float | None = None,
        actions: int | None = None,
    ) -> IdleOutcome:
        """Spend an idle window on auxiliary refinements.

        An action count, when given, sizes the window; otherwise the
        time budget does.

        Raises:
            ConfigError: if neither a budget nor an action count is
                given, or the one in use is negative.
        """
        if actions is not None:
            if actions < 0:
                raise ConfigError(f"actions must be >= 0, got {actions}")
        elif budget_s is None:
            raise ConfigError(
                "idle window needs a time budget or an action count"
            )
        elif budget_s < 0:
            raise ConfigError(f"budget must be >= 0, got {budget_s}")
        self._register_candidates()
        self.idle_windows += 1
        where = ""
        if self.worker_pool is not None:
            report = self.worker_pool.run_window(actions, budget_s)
            where = (
                f" on {self.config.num_workers} workers, "
                f"{report.stalls} stalls"
            )
        elif actions is None:
            report = self.scheduler.run_budget(budget_s)
        elif self.config.batch_tuning:
            report = self.scheduler.run_actions_batched(actions)
        else:
            report = self.scheduler.run_actions(actions)
        self.lifetime.merge(report)
        return IdleOutcome(
            actions_done=report.actions_effective,
            blocking=False,
            note=(
                f"{report.actions_effective}/{report.actions_attempted} "
                f"auxiliary actions{where} ({report.stop_reason})"
            ),
        )

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
        return self.lifetime
