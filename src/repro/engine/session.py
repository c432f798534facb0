"""Query sessions: timing, accounting and strategy dispatch.

A session answers queries through one indexing strategy and records
per-query *response times* on the shared clock.  Two paper-critical
accounting rules live here:

* **idle time is not response time** -- the cumulative curves of
  Figures 3/4 sum query responses only; idle windows advance the clock
  without adding to the curves;
* **blocking overruns become waiting time** -- when a strategy spends
  more than an idle window's nominal length on non-interruptible work
  (offline's full sorts), the excess is charged to the next query as
  waiting time: queries "arrive before the index is ready and have to
  wait for indexing to finish" (paper §4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import Sequence

from repro.engine.operators import PendingWindow, apply_pending, pending_slots
from repro.engine.plan import PlannedQuery, group_by_column
from repro.engine.query import RangeQuery
from repro.engine.strategies import (
    AdaptiveStrategy,
    BatchExecution,
    IndexingStrategy,
    OfflineStrategy,
    OnlineStrategy,
    ScanStrategy,
)
from repro.errors import ConfigError
from repro.offline.whatif import WorkloadStatement
from repro.simtime.accounting import WindowAccountant
from repro.simtime.charge import CostCharge
from repro.simtime.clock import SimClock
from repro.storage.catalog import ColumnRef
from repro.storage.database import Database
from repro.storage.dtypes import normalise_range
from repro.storage.views import SelectionResult


@dataclass(slots=True)
class QueryRecord:
    """One answered query with its timing.

    Treated as immutable by convention; not ``frozen`` because the
    frozen-dataclass ``__init__`` (one ``object.__setattr__`` per
    field) costs more than the rest of the per-query bookkeeping on
    the hot path.
    """

    sequence: int
    query: RangeQuery
    response_s: float
    wait_s: float
    result_count: int
    cumulative_response_s: float
    finished_at: float
    #: Which client this query belonged to; "" for single-client
    #: sessions.  The concurrent serving front-end tags every record
    #: with its lane's client name (see :mod:`repro.serving`).
    client: str = ""


@dataclass(slots=True)
class IdleRecord:
    """One idle window as the session saw it (immutable by
    convention, like :class:`QueryRecord`)."""

    sequence: int
    nominal_s: float
    consumed_s: float
    actions_done: int
    debt_s: float
    note: str


@dataclass(slots=True)
class SessionReport:
    """Aggregate view of a session's history."""

    strategy: str
    queries: list[QueryRecord] = field(default_factory=list)
    idles: list[IdleRecord] = field(default_factory=list)
    #: Client name for per-client reports produced by the serving
    #: front-end; "" for plain single-client sessions.
    client: str = ""

    @property
    def query_count(self) -> int:
        return len(self.queries)

    @property
    def total_response_s(self) -> float:
        return self.queries[-1].cumulative_response_s if self.queries else 0.0

    @property
    def total_idle_nominal_s(self) -> float:
        return sum(idle.nominal_s for idle in self.idles)

    def cumulative_curve(self) -> list[float]:
        """Cumulative response seconds per query rank (Figure 3/4 y-axis)."""
        return [record.cumulative_response_s for record in self.queries]

    def response_times(self) -> list[float]:
        return [record.response_s for record in self.queries]


class Session:
    """A query session bound to one indexing strategy."""

    def __init__(
        self,
        database: Database,
        strategy: IndexingStrategy,
        client: str = "",
    ) -> None:
        self.db = database
        self.clock = database.clock
        self.strategy = strategy
        self.client = client
        self.report = SessionReport(strategy=strategy.name, client=client)
        self._cumulative_s = 0.0
        self._pending_wait_s = 0.0
        self._accountant: WindowAccountant | None = None

    # -- workload knowledge -------------------------------------------------

    def hint_workload(self, statements: list[WorkloadStatement]) -> None:
        """Give the strategy a-priori workload knowledge."""
        self.strategy.hint_workload(statements)

    # -- querying -------------------------------------------------------------

    def select(
        self, table: str, column: str, low: float, high: float
    ) -> SelectionResult:
        """Answer one range query, recording its response time."""
        query = RangeQuery(ColumnRef(table, column), low, high)
        return self.run_query(query)

    def run_query(self, query: RangeQuery) -> SelectionResult:
        """Answer one range query, normalising its bounds once, here,
        where its column is resolved."""
        started = self.clock.now()
        self.clock.charge(CostCharge(queries=1))
        ref = query.ref
        table = self.db.catalog.table(ref.table)
        bounds = normalise_range(
            table.column(ref.column).ctype.numpy_dtype, query.low, query.high
        )
        if bounds is None:
            result = self.strategy.select_empty(query)
        else:
            result = apply_pending(
                self.strategy.select_keys(query, *bounds),
                table.updates_for(ref.column),
                *bounds,
                self.clock,
            )
        finished = self.clock.now()
        wait = self._pending_wait_s
        self._pending_wait_s = 0.0
        response = (finished - started) + wait
        self._cumulative_s += response
        self.report.queries.append(
            QueryRecord(
                sequence=len(self.report.queries) + 1,
                query=query,
                response_s=response,
                wait_s=wait,
                result_count=result.count,
                cumulative_response_s=self._cumulative_s,
                finished_at=finished,
                client=self.client,
            )
        )
        return result

    def run_batch(
        self, queries: Sequence[RangeQuery]
    ) -> list[SelectionResult]:
        """Answer a window of range queries with shared work.

        The window is grouped by column and planned once per group;
        strategies that support it (standard adaptive cracking, the
        holistic kernel) execute each group's physical work in one
        batched pass and *replay* the per-query accounting through
        :meth:`run_window`, so every query still gets its own
        :class:`QueryRecord` and the results, response times,
        cumulative clock totals and tape contents are identical to
        calling :meth:`run_query` one query at a time.  Strategies
        without a batch path, and clocks a :class:`WindowAccountant`
        cannot price (a wall clock, a :class:`SimClock` inside a
        parallel phase), fall back to exactly that sequential loop.
        """
        queries = list(queries)
        if not queries:
            return []
        # Resolves every window's column BEFORE the strategy's physical
        # pass: an unknown table/column must fail here, while nothing
        # has been cracked yet, or the already-processed columns would
        # carry silent (uncharged, unlogged) cracks and break
        # batch==sequential equivalence for the rest of the session.
        windows = group_by_column(queries, self.db.catalog)
        clock = self.clock
        execution = None
        if isinstance(clock, SimClock) and not clock.in_parallel:
            execution = self.strategy.begin_batch(queries, windows)
        if execution is None:
            return [self.run_query(query) for query in queries]
        return self.run_window(
            queries,
            execution,
            pending_slots(self.db.catalog, windows, len(queries)),
        )

    def run_window(
        self,
        queries: Sequence[RangeQuery],
        execution: BatchExecution,
        pending: Sequence[tuple[PendingWindow, int] | None],
    ) -> list[SelectionResult]:
        """The window loop: replay ``execution`` query by query.

        ``execution`` did the window's physical work (a strategy's
        :meth:`~IndexingStrategy.begin_batch`, or a serving lane's
        replays over the shared index) and owns each query's whole
        charge stream, ``CostCharge(queries=1)`` overhead included;
        ``pending`` is :func:`~repro.engine.operators.pending_slots`.
        The session's one :class:`WindowAccountant` prices every
        charge inline (same arithmetic, same left-fold order as
        per-event clock charges, so all timestamps stay bit-identical)
        and settles time plus work counters on this session's clock
        once at window end.  A replay that raises settles too: the
        clock, the records before it, the cumulative total and the
        strategy's notes are what sequential :meth:`run_query` calls
        failing at that query leave.  Cracks the physical pass made for
        fresh bounds of later queries stay in the index uncharged.
        """
        accountant = self._accountant
        if accountant is None:
            accountant = self._accountant = WindowAccountant(self.clock)
        else:
            accountant.rearm()
        execution.bind(accountant)
        replay = execution.replay
        append_record = self.report.queries.append
        results: list[SelectionResult] = []
        append_result = results.append
        sequence = len(self.report.queries)
        client = self.client
        # Blocking-idle debt is waiting time of the window's first
        # query only (and still owed if that query fails).
        wait = self._pending_wait_s
        cumulative = self._cumulative_s
        try:
            for i, query in enumerate(queries):
                started = accountant.now
                result = replay(i, query)
                slotted = pending[i]
                if slotted is not None:
                    result = slotted[0].apply(slotted[1], result, accountant)
                finished = accountant.now
                response = (finished - started) + wait
                cumulative += response
                sequence += 1
                # Positional: keyword arguments cost a slots dataclass's
                # __init__ more than twice as much.
                append_record(
                    QueryRecord(
                        sequence, query, response, wait, result.count,
                        cumulative, finished, client,
                    )
                )
                append_result(result)
                wait = 0.0
        finally:
            self._pending_wait_s = wait
            self._cumulative_s = cumulative
            accountant.finish()
            execution.finish()
        return results

    def explain(
        self, table: str, column: str, low: float, high: float
    ) -> PlannedQuery:
        """The access path the strategy would use, without running it."""
        query = RangeQuery(ColumnRef(table, column), low, high)
        path = self.strategy.access_path(query)
        rows = self.db.catalog.column(query.ref).row_count
        from repro.engine.plan import estimate_path_cost

        estimate = estimate_path_cost(path, rows, self.db.cost_model)
        return PlannedQuery(query, path, estimate)

    # -- background tuning -------------------------------------------------------

    def start_background_tuning(self, actions: int) -> None:
        """Race the strategy's tuning workers against this session.

        Queues ``actions`` auxiliary refinements on the strategy's
        worker pool and leaves it running, so subsequent
        :meth:`run_query` calls execute concurrently with background
        index refinement (the paper's idle-core scenario).  Only
        meaningful for strategies with tuning workers -- the holistic
        kernel configured with ``num_workers >= 1``.

        Raises:
            ConfigError: if the strategy has no tuning workers.
        """
        strategy = self.strategy
        if not hasattr(strategy, "start_workers"):
            raise ConfigError(
                f"strategy {strategy.name!r} has no tuning workers"
            )
        strategy.start_workers()
        strategy.submit_tuning(actions)

    def finish_background_tuning(self) -> None:
        """Drain queued background tuning and stop the workers.

        Folds the workers' parallel time into the session clock.

        Raises:
            ConfigError: if the strategy has no tuning workers.
        """
        strategy = self.strategy
        if not hasattr(strategy, "stop_workers"):
            raise ConfigError(
                f"strategy {strategy.name!r} has no tuning workers"
            )
        strategy.drain_workers()
        strategy.stop_workers()

    # -- idle time ---------------------------------------------------------------

    def idle(
        self,
        seconds: float | None = None,
        actions: int | None = None,
    ) -> IdleRecord:
        """Declare an idle window for the strategy to exploit.

        Args:
            seconds: nominal window length; strategies that cannot use
                it simply let it pass.
            actions: the paper's alternative formulation -- the window
                lasts exactly as long as this many refinement actions
                take (only meaningful to strategies that refine
                incrementally).

        Raises:
            ConfigError: if neither form is given.
        """
        if seconds is None and actions is None:
            raise ConfigError("idle() needs seconds= or actions=")
        started = self.clock.now()
        outcome = self.strategy.exploit_idle(
            budget_s=seconds, actions=actions
        )
        consumed = self.clock.now() - started
        if seconds is not None:
            nominal = float(seconds)
        else:
            nominal = consumed
        debt = 0.0
        if consumed < nominal:
            # The strategy could not fill the window; time still passes.
            self.clock.sleep(nominal - consumed)
            consumed = nominal
        elif consumed > nominal:
            if outcome.blocking:
                # Non-interruptible work ran past the window: arriving
                # queries will wait for it.
                debt = consumed - nominal
                self._pending_wait_s += debt
            else:
                # Interruptible tuning slightly overshot; the window
                # effectively lasted that long.
                nominal = consumed
        record = IdleRecord(
            sequence=len(self.report.idles) + 1,
            nominal_s=nominal,
            consumed_s=consumed,
            actions_done=outcome.actions_done,
            debt_s=debt,
            note=outcome.note,
        )
        self.report.idles.append(record)
        return record

    # -- persistence -------------------------------------------------------------

    def export_state(self) -> dict:
        """The session's durable accounting counters (snapshots).

        Query/idle records are observability history, not engine
        state -- a restored session starts a fresh report but keeps
        the cumulative response curve and any outstanding blocking
        debt, so post-restart records continue the same timeline.
        """
        return {
            "cumulative_s": self._cumulative_s,
            "pending_wait_s": self._pending_wait_s,
            "queries_answered": len(self.report.queries),
        }

    def restore_state(self, state: dict) -> None:
        """Adopt previously-exported session counters."""
        self._cumulative_s = float(state["cumulative_s"])
        self._pending_wait_s = float(state["pending_wait_s"])

    def __repr__(self) -> str:
        return (
            f"Session({self.strategy.name!r}, "
            f"queries={self.report.query_count})"
        )


_STRATEGIES = {
    "scan": ScanStrategy,
    "adaptive": AdaptiveStrategy,
    "offline": OfflineStrategy,
    "online": OnlineStrategy,
}


def make_strategy(
    name: str, db: Database, **options: object
) -> IndexingStrategy:
    """Instantiate a strategy by name.

    ``holistic`` resolves to :class:`repro.holistic.HolisticKernel`;
    its options are the fields of
    :class:`repro.holistic.HolisticConfig`.

    Raises:
        ConfigError: on an unknown strategy name.
    """
    key = name.lower()
    if key == "holistic":
        from repro.holistic.kernel import HolisticConfig, HolisticKernel

        config = options.pop("config", None)
        if config is None:
            config = HolisticConfig(**options)  # type: ignore[arg-type]
        elif options:
            raise ConfigError(
                "pass either config= or keyword options, not both"
            )
        return HolisticKernel(db, config)
    try:
        factory = _STRATEGIES[key]
    except KeyError:
        supported = ", ".join([*sorted(_STRATEGIES), "holistic"])
        raise ConfigError(
            f"unknown strategy {name!r}; supported: {supported}"
        ) from None
    return factory(db, **options)  # type: ignore[arg-type]
