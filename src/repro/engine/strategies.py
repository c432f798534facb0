"""Indexing strategies: scan, adaptive, offline and online.

Each strategy answers range selects over the shared database while
making its own physical-design decisions.  They present one interface
(select / exploit_idle / prepare / features) so the bench harness can
swap them symmetrically, exactly as the paper compares them.  The
holistic strategy -- the paper's contribution -- lives in
:mod:`repro.holistic.kernel`: it is :class:`AdaptiveStrategy` plus a
monitor, a ranking and idle-time actions.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Sequence

from repro.cracking.index import CrackerIndex
from repro.cracking.stochastic import StochasticCrackerIndex
from repro.engine.operators import scan_select
from repro.engine.plan import AccessPath, ColumnWindow
from repro.engine.query import RangeQuery
from repro.errors import ConfigError
from repro.offline.advisor import OfflineAdvisor
from repro.offline.builder import IndexBuilder
from repro.offline.whatif import WhatIfOptimizer, WorkloadStatement
from repro.online.colt import ColtTuner
from repro.online.monitor import WorkloadMonitor
from repro.storage.catalog import ColumnRef
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

    actions_done: int = 0
    blocking: bool = False
    note: str = ""


#: One read of a replayed window: its column's crack replay context and
#: its bounds normalised into the column's domain (``None`` for a range
#: no value can lie in).
WindowSlot = tuple[Any, tuple[Key, Key] | None]


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
    ) -> list[WindowSlot] | None:
        """Start a shared-work execution of a query window.

        Strategies that can amortize a window do its physical work now
        and return one ``(replay context, normalised bounds)`` slot per
        query for the session's window loop
        (:meth:`~repro.engine.session.Session.run_window`); the default
        ``None`` tells the session to fall back to sequential
        :meth:`~repro.engine.session.Session.run_query` calls (which is
        always semantically equivalent).
        """
        return None

    def note_window(self, queries: Sequence[RangeQuery]) -> None:
        """Bookkeeping for the reads a window loop replayed, once at
        the window's end (default: none)."""

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

    The holistic kernel (:mod:`repro.holistic.kernel`) extends it with
    monitoring and idle-time tuning.

    Args:
        db: the database.
        variant: ``standard`` (plain cracking) or ``ddc``/``ddr``/
            ``mdd1r`` (stochastic cracking [10]).
        seed: seed for stochastic variants.
        stop_piece_size: piece size, in rows, at which stochastic
            recursion stops; ``None`` takes the cache size.

    Raises:
        ConfigError: on an unknown variant or a ``stop_piece_size``
            below 2.
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
        if stop_piece_size is None:
            # Stochastic recursion stops at cache-resident pieces.
            stop_piece_size = max(2, db.cost_model.cache_rows())
        elif stop_piece_size < 2:
            raise ConfigError(
                f"stop_piece_size must be >= 2, got {stop_piece_size}"
            )
        self.variant = variant
        self.seed = seed
        self.stop_piece_size = stop_piece_size
        self.indexes: dict[ColumnRef, CrackerIndex] = {}

    def index_for(self, ref: ColumnRef) -> CrackerIndex:
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
            self.adopt_index(ref, index)
        return index

    def adopt_index(self, ref: ColumnRef, index: CrackerIndex) -> None:
        """Add ``index``, created or restored, as the index on ``ref``."""
        self.indexes[ref] = index

    def select_keys(
        self, query: RangeQuery, low: Key, high: Key
    ) -> SelectionResult:
        return self.index_for(query.ref).select_keys(low, high)

    def begin_batch(
        self,
        queries: Sequence[RangeQuery],
        windows: list[ColumnWindow],
    ) -> list[WindowSlot] | None:
        """Shared cracking, one physical pass per column; ``standard``
        cracking only.  Query ``i``'s slot is its column's
        :class:`~repro.cracking.batch.CrackSelectBatch` and its
        normalised bounds.

        Stochastic variants keep their own per-query refinement
        decisions (random auxiliary cracks) that depend on execution
        order, so they fall back to the sequential path.
        """
        if self.variant != "standard":
            return None
        slots: list = [None] * len(queries)
        for window in windows:
            context = self.index_for(window.ref).begin_select_batch(
                window.ranges
            )
            for i, bounds in zip(window.indices, window.bounds):
                slots[i] = (context, bounds)
        return slots

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
        build_policy: ``always_build`` builds every beneficial index
            even when the idle budget is too small (arriving queries
            wait -- the paper's Exp1 behaviour); ``fit_budget`` builds
            only indexes that fit (Exp2 behaviour).
    """

    name = "offline"

    def __init__(self, db: Database, build_policy: str = "fit_budget") -> None:
        super().__init__(db)
        if build_policy not in ("always_build", "fit_budget"):
            raise ConfigError(
                f"unknown build policy {build_policy!r}; supported: "
                "always_build, fit_budget"
            )
        self.build_policy = build_policy
        self.advisor = OfflineAdvisor(
            WhatIfOptimizer(db.catalog, db.cost_model)
        )
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
        picked, left_out = self.advisor.advise(
            self._hints,
            budget_s=None if self.build_policy == "always_build" else budget_s,
        )
        for ref in picked:
            self.builder.build_now(ref)
        return IdleOutcome(
            actions_done=len(picked),
            blocking=True,
            note=f"built {len(picked)} index(es), skipped {len(left_out)}",
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
    """COLT-style online tuning [16]; its cadence and knobs are
    :mod:`repro.online.colt`'s constants."""

    name = "online"

    def __init__(self, db: Database) -> None:
        super().__init__(db)
        self.monitor = WorkloadMonitor()
        self.builder = IndexBuilder(db.catalog, db.clock)
        self.colt = ColtTuner(
            self.monitor,
            WhatIfOptimizer(db.catalog, db.cost_model),
            self.builder,
        )

    def select_keys(
        self, query: RangeQuery, low: Key, high: Key
    ) -> SelectionResult:
        self.monitor.record(query.ref)
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
        self.colt.observe_query()
        return result

    def select_empty(self, query: RangeQuery) -> SelectionResult:
        self.monitor.record(query.ref)
        self.colt.observe_query()
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
