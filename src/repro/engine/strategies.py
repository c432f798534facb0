"""Indexing strategies: scan, adaptive, offline and online.

Each strategy answers range selects over the shared database while
making its own physical-design decisions.  They present one interface
(select / exploit_idle / prepare / features) so the bench harness can
swap them symmetrically, exactly as the paper compares them.  The
holistic strategy -- the paper's contribution -- lives in
:mod:`repro.holistic.kernel` and plugs into the same interface.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Protocol, Sequence

from repro.cracking.index import CrackerIndex
from repro.cracking.stochastic import StochasticCrackerIndex
from repro.engine.operators import scan_select
from repro.engine.plan import AccessPath, ColumnWindow
from repro.engine.query import RangeQuery
from repro.errors import ConfigError
from repro.offline.advisor import OfflineAdvisor
from repro.offline.builder import IndexBuilder
from repro.offline.whatif import WhatIfOptimizer, WorkloadStatement
from repro.online.colt import ColtConfig, ColtTuner
from repro.online.epoch import EpochManager
from repro.online.monitor import WorkloadMonitor
from repro.storage.database import Database
from repro.storage.dtypes import Key, normalise_range
from repro.storage.views import MaterializedResult, SelectionResult


@dataclass(frozen=True, slots=True)
class StrategyFeatures:
    """One row of the paper's Table 1."""

    name: str
    statistical_analysis: bool
    idle_a_priori: bool
    idle_during_workload: bool
    incremental_indexing: bool
    workload: str  # "static" or "dynamic"


@dataclass(slots=True)
class IdleOutcome:
    """What a strategy did with an idle window.

    ``blocking`` marks work that cannot be interrupted (full index
    builds): overruns past the window's nominal length make the next
    query wait, which the session accounts as response time.
    """

    consumed_s: float = 0.0
    actions_done: int = 0
    blocking: bool = False
    note: str = ""


class BatchExecution(Protocol):
    """A strategy's shared-work plan for one window of queries.

    The session's window loop (:meth:`Session.run_window`) drives it
    one query at a time, in window order: each
    :meth:`replay` call must emit exactly the clock charges (and tape
    records, where applicable) that a sequential ``select`` of that
    query would have produced at that point, so per-query accounting
    survives batching bit-for-bit.  :meth:`finish` flushes deferred
    bookkeeping (monitor/ranking updates) once the window is done.
    """

    def bind(self, accountant) -> None:
        """Route the window's charges through the session's accountant
        (see :mod:`repro.simtime.accounting`)."""
        ...

    def replay(self, slot: int, query: RangeQuery) -> SelectionResult:
        """Account for the ``slot``-th window query; return its result.

        Owns the query's whole charge stream, starting with the
        ``CostCharge(queries=1)`` per-query overhead the sequential
        session loop charges before dispatching to the strategy.
        """
        ...

    def finish(self) -> None:
        """Flush deferred end-of-window bookkeeping."""
        ...


class IndexingStrategy(ABC):
    """Common interface of all indexing approaches."""

    name: str = "abstract"

    def __init__(self, db: Database) -> None:
        self.db = db
        self.clock = db.clock

    def select(self, query: RangeQuery) -> SelectionResult:
        """Answer one range query given with raw bounds (refining
        indexes if applicable); the session normalises them itself, once,
        and calls :meth:`select_keys` or :meth:`select_empty`."""
        column = self.db.catalog.column(query.ref)
        bounds = normalise_range(column.values.dtype, query.low, query.high)
        if bounds is None:
            return self.select_empty(query)
        return self.select_keys(query, *bounds)

    @abstractmethod
    def select_keys(
        self, query: RangeQuery, low: Key, high: Key
    ) -> SelectionResult:
        """Answer ``query`` over its non-empty range normalised to
        ``[low, high)`` (:func:`~repro.storage.dtypes.normalise_range`),
        refining indexes if applicable."""

    def select_empty(self, query: RangeQuery) -> SelectionResult:
        """Answer ``query``, whose range holds no storable value: no
        probe, no crack, no charge -- only the bookkeeping a strategy
        keeps for every query (none here)."""
        return MaterializedResult(self.db.catalog.column(query.ref).values[:0])

    def begin_batch(
        self,
        queries: Sequence[RangeQuery],
        windows: list[ColumnWindow],
    ) -> BatchExecution | None:
        """Start a shared-work execution of a query window.

        Strategies that can amortize a window return a
        :class:`BatchExecution`; the default ``None`` tells the
        session to fall back to sequential ``run`` calls (which is
        always semantically equivalent).
        """
        return None

    @abstractmethod
    def features(self) -> StrategyFeatures:
        """This strategy's Table-1 feature row."""

    def access_path(self, query: RangeQuery) -> AccessPath:
        """The path :meth:`select` would take for ``query``."""
        return AccessPath.SCAN

    def hint_workload(self, statements: list[WorkloadStatement]) -> None:
        """Provide a-priori workload knowledge (default: ignored)."""

    def exploit_idle(
        self,
        budget_s: float | None = None,
        actions: int | None = None,
    ) -> IdleOutcome:
        """Use an idle window (default: cannot exploit idle time)."""
        return IdleOutcome(note="idle time not exploitable")


def crack_windows(
    index_for, windows: list[ColumnWindow], count: int
) -> list:
    """One session window's physical passes, one per column.

    Returns, per slot of the ``count``-query window, its column's
    :meth:`CrackerIndex.begin_select_batch` replay context (of index
    ``index_for(ref)``) and the slot's normalised bounds -- the slots a
    cracker :class:`BatchExecution` is built from.
    """
    slots: list = [None] * count
    for window in windows:
        context = index_for(window.ref).begin_select_batch(window.ranges)
        for i, bounds in zip(window.indices, window.bounds):
            slots[i] = (context, bounds)
    return slots


class CrackerBatchExecution:
    """Shared cracking for a window over plain cracker indexes.

    Built from one ``(crack replay context, normalised bounds)`` pair
    per query -- a :meth:`CrackerIndex.begin_select_batch` context for
    one session's window (see :func:`crack_windows`), or a served
    client's :class:`~repro.cracking.batch.DetachedCrackReplay` -- each
    query's replay emitting the sequential charge/tape stream on its
    column's context (see :mod:`repro.cracking.batch`).
    """

    __slots__ = ("_slots", "_acc")

    def __init__(self, slots: list) -> None:
        self._slots = slots
        self._acc = None

    def bind(self, accountant) -> None:
        self._acc = accountant
        for context in dict.fromkeys(context for context, _ in self._slots):
            context.bind(accountant)

    def replay(self, slot: int, query: RangeQuery) -> SelectionResult:
        context, bounds = self._slots[slot]
        if bounds is None:
            # An empty range: the per-query overhead alone.
            self._acc.charge_query()
            return context.empty()
        return context.replay_query(*bounds)

    def finish(self) -> None:
        return None


class ScanStrategy(IndexingStrategy):
    """No indexing at all: every select is a full scan."""

    name = "scan"

    def select_keys(
        self, query: RangeQuery, low: Key, high: Key
    ) -> SelectionResult:
        column = self.db.catalog.column(query.ref)
        return scan_select(column.values, low, high, self.clock)

    def features(self) -> StrategyFeatures:
        return StrategyFeatures(
            name=self.name,
            statistical_analysis=False,
            idle_a_priori=False,
            idle_during_workload=False,
            incremental_indexing=False,
            workload="dynamic",
        )


_ADAPTIVE_VARIANTS = ("standard", "ddc", "ddr", "mdd1r")


class AdaptiveStrategy(IndexingStrategy):
    """Database cracking [12]: indexes emerge from query processing.

    Args:
        db: the database.
        variant: ``standard`` (plain cracking) or ``ddc``/``ddr``/
            ``mdd1r`` (stochastic cracking [10]).
        seed: seed for stochastic variants.
    """

    name = "adaptive"

    def __init__(
        self,
        db: Database,
        variant: str = "standard",
        seed: int | None = None,
        stop_piece_size: int | None = None,
    ) -> None:
        super().__init__(db)
        variant = variant.lower()
        if variant not in _ADAPTIVE_VARIANTS:
            raise ConfigError(
                f"unknown adaptive variant {variant!r}; supported: "
                f"{', '.join(_ADAPTIVE_VARIANTS)}"
            )
        self.variant = variant
        self.seed = seed
        if stop_piece_size is None:
            # Stochastic recursion stops at cache-resident pieces; at a
            # reduced scale the threshold de-projects with the model so
            # the variants keep their paper-scale behaviour.
            model = db.cost_model
            stop_piece_size = max(
                2, int(model.constants.cache_elements() / model.scale)
            )
        self.stop_piece_size = stop_piece_size
        self.indexes: dict[object, object] = {}

    def index_for(self, ref):
        """Get or lazily create the cracker index on ``ref``."""
        index = self.indexes.get(ref)
        if index is None:
            column = self.db.catalog.column(ref)
            if self.variant == "standard":
                index = CrackerIndex(column, clock=self.clock)
            else:
                index = StochasticCrackerIndex(
                    column,
                    variant=self.variant,
                    seed=self.seed,
                    stop_piece_size=self.stop_piece_size,
                    clock=self.clock,
                )
            self.indexes[ref] = index
        return index

    def select_keys(
        self, query: RangeQuery, low: Key, high: Key
    ) -> SelectionResult:
        return self.index_for(query.ref).select_keys(low, high)

    def begin_batch(
        self,
        queries: Sequence[RangeQuery],
        windows: list[ColumnWindow],
    ) -> BatchExecution | None:
        """Shared cracking per column; ``standard`` cracking only.

        Stochastic variants keep their own per-query refinement
        decisions (random auxiliary cracks) that depend on execution
        order, so they fall back to the sequential path.
        """
        if self.variant != "standard":
            return None
        return self.batch_execution(
            crack_windows(self.index_for, windows, len(queries))
        )

    def batch_execution(self, slots: list) -> BatchExecution:
        """The window execution replaying query ``i`` of a window on
        ``slots[i]``, its column's crack replay context and its
        normalised bounds (see :class:`CrackerBatchExecution`)."""
        return CrackerBatchExecution(slots)

    def access_path(self, query: RangeQuery) -> AccessPath:
        return AccessPath.CRACKER

    def features(self) -> StrategyFeatures:
        return StrategyFeatures(
            name=self.name,
            statistical_analysis=False,
            idle_a_priori=False,
            idle_during_workload=False,
            incremental_indexing=True,
            workload="dynamic",
        )


class OfflineStrategy(IndexingStrategy):
    """Classic offline auto-tuning [5]: advise, build a priori, probe.

    Args:
        db: the database.
        build_policy: ``always_build`` builds every recommended index
            even when the idle budget is too small (arriving queries
            wait -- the paper's Exp1 behaviour); ``fit_budget`` builds
            only indexes that fit (Exp2 behaviour).
        max_indexes: optional cap on recommendations.
    """

    name = "offline"

    def __init__(
        self,
        db: Database,
        build_policy: str = "fit_budget",
        max_indexes: int | None = None,
    ) -> None:
        super().__init__(db)
        if build_policy not in ("always_build", "fit_budget"):
            raise ConfigError(
                f"unknown build policy {build_policy!r}; supported: "
                "always_build, fit_budget"
            )
        self.build_policy = build_policy
        self.max_indexes = max_indexes
        self.optimizer = WhatIfOptimizer(db.catalog, db.cost_model)
        self.advisor = OfflineAdvisor(self.optimizer)
        self.builder = IndexBuilder(db.catalog, db.clock)
        self._hints: list[WorkloadStatement] = []
        self._prepared = False

    def hint_workload(self, statements: list[WorkloadStatement]) -> None:
        self._hints = list(statements)
        self._prepared = False

    def exploit_idle(
        self,
        budget_s: float | None = None,
        actions: int | None = None,
    ) -> IdleOutcome:
        """Build the advised indexes; only the first window is usable.

        Offline indexing performs its analysis and builds before the
        workload; later idle windows go unexploited (Table 1).
        """
        if self._prepared or not self._hints:
            return IdleOutcome(note="offline: nothing (left) to build")
        self._prepared = True
        start = self.clock.now()
        advise_budget = (
            None if self.build_policy == "always_build" else budget_s
        )
        report = self.advisor.advise(
            self._hints, budget_s=advise_budget, max_indexes=self.max_indexes
        )
        refs = [rec.ref for rec in report.recommended]
        if self.build_policy == "always_build":
            build_report = self.builder.build_within(refs, budget_s=None)
        else:
            build_report = self.builder.build_within(refs, budget_s=budget_s)
        consumed = self.clock.now() - start
        return IdleOutcome(
            consumed_s=consumed,
            actions_done=len(build_report.built),
            blocking=True,
            note=(
                f"built {len(build_report.built)} index(es), "
                f"skipped {len(build_report.skipped)}"
            ),
        )

    def select_keys(
        self, query: RangeQuery, low: Key, high: Key
    ) -> SelectionResult:
        index = self.builder.index_for(query.ref)
        if index is not None:
            return index.select_range(low, high)
        column = self.db.catalog.column(query.ref)
        return scan_select(column.values, low, high, self.clock)

    def access_path(self, query: RangeQuery) -> AccessPath:
        if self.builder.index_for(query.ref) is not None:
            return AccessPath.FULL_INDEX
        return AccessPath.SCAN

    def features(self) -> StrategyFeatures:
        return StrategyFeatures(
            name=self.name,
            statistical_analysis=True,
            idle_a_priori=True,
            idle_during_workload=False,
            incremental_indexing=False,
            workload="static",
        )


class OnlineStrategy(IndexingStrategy):
    """COLT-style online tuning [16].

    Args:
        db: the database.
        epoch_queries: reevaluation cadence.
        colt_config: tuner knobs; defaults to :class:`ColtConfig`.
    """

    name = "online"

    def __init__(
        self,
        db: Database,
        epoch_queries: int = 100,
        colt_config: ColtConfig | None = None,
    ) -> None:
        super().__init__(db)
        self.monitor = WorkloadMonitor(db.catalog)
        self.epochs = EpochManager(epoch_queries)
        self.optimizer = WhatIfOptimizer(db.catalog, db.cost_model)
        self.builder = IndexBuilder(db.catalog, db.clock)
        config = colt_config if colt_config is not None else ColtConfig()
        self.colt = ColtTuner(self.monitor, self.optimizer, self.builder, config)
        self.epochs.on_epoch(self.colt.reevaluate)

    def select_keys(
        self, query: RangeQuery, low: Key, high: Key
    ) -> SelectionResult:
        now = self.clock.now()
        self.monitor.record(query.ref, query.low, query.high, now)
        index = self.colt.index_for(query.ref)
        if index is not None:
            self.colt.note_index_use(query.ref)
            result = index.select_range(low, high)
        else:
            column = self.db.catalog.column(query.ref)
            result = scan_select(column.values, low, high, self.clock)
        # Epoch bookkeeping happens inside the query window: inline
        # builds delay the triggering query -- the online-indexing
        # penalty the paper describes.
        self.epochs.observe_query(self.clock.now())
        return result

    def select_empty(self, query: RangeQuery) -> SelectionResult:
        now = self.clock.now()
        self.monitor.record(query.ref, query.low, query.high, now)
        self.epochs.observe_query(now)
        return super().select_empty(query)

    def access_path(self, query: RangeQuery) -> AccessPath:
        if self.colt.index_for(query.ref) is not None:
            return AccessPath.FULL_INDEX
        return AccessPath.SCAN

    def features(self) -> StrategyFeatures:
        return StrategyFeatures(
            name=self.name,
            statistical_analysis=True,
            idle_a_priori=False,
            # Table 1's row: COLT may reorganise during idle time.  This
            # reproduction builds inline at epoch boundaries only, so
            # an idle window passes unused.
            idle_during_workload=True,
            incremental_indexing=False,
            workload="dynamic",
        )
