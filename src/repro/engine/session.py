"""Query sessions: timing, accounting and strategy dispatch.

A session answers queries through one indexing strategy and sums
their *response times* on the shared clock into running totals
(:class:`SessionReport`); per-event records go only to a sink the
caller hands in.  Two paper-critical accounting rules live here:

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

from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from repro.engine.operators import PendingWindow, apply_pending, pending_slots
from repro.engine.plan import (
    PlannedQuery,
    Resolved,
    group_by_column,
    resolve_column,
)
from repro.engine.query import RangeQuery
from repro.engine.strategies import (
    AdaptiveStrategy,
    IndexingStrategy,
    OfflineStrategy,
    OnlineStrategy,
    ScanStrategy,
    WindowSlot,
)
from repro.errors import ConfigError
from repro.offline.whatif import WorkloadStatement
from repro.simtime.accounting import WindowAccountant
from repro.simtime.clock import SimClock
from repro.storage.catalog import ColumnRef
from repro.storage.database import Database
from repro.storage.dtypes import normalise_range
from repro.storage.views import SelectionResult


#: The replay context of a window slot.
_context = itemgetter(0)


@dataclass(slots=True)
class QueryRecord:
    """One answered query with its timing, as a report's history sink
    receives it.

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
    """A session's running totals, plus an optional history sink.

    Every query and idle window updates the totals inline, so a report
    stays the same size however long its session runs.  A caller that
    wants per-event history hands in a list as ``records`` before the
    events run; the session then appends one :class:`QueryRecord` per
    query and one :class:`IdleRecord` per idle window, in event order.
    """

    strategy: str
    #: Client name for per-client reports produced by the serving
    #: front-end; "" for plain single-client sessions.
    client: str = ""
    query_count: int = 0
    #: The running cumulative response (the end of Figures 3/4's
    #: curve); blocking-idle waits included, idle windows not.
    total_response_s: float = 0.0
    #: Blocking-idle debt the queries have waited out so far.
    total_wait_s: float = 0.0
    result_rows: int = 0
    idle_count: int = 0
    idle_consumed_s: float = 0.0
    idle_debt_s: float = 0.0
    #: The history sink; ``None`` keeps no per-event records.
    records: list[QueryRecord | IdleRecord] | None = None

    def cumulative_curve(self) -> list[float]:
        """Cumulative response seconds per query rank (Figure 3/4
        y-axis), read from the history sink.

        Raises:
            ConfigError: if the report has no sink.
        """
        if self.records is None:
            raise ConfigError(
                "cumulative_curve() reads the history sink; set "
                "report.records = [] before the queries run"
            )
        return [
            record.cumulative_response_s
            for record in self.records
            if isinstance(record, QueryRecord)
        ]


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
        self._pending_wait_s = 0.0
        self._accountant: WindowAccountant | None = None
        #: Every column queried so far, resolved once for
        #: :meth:`run_query` and the window plans alike.
        self._resolved: Resolved = {}

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
        clock = self.clock
        started = clock.now()
        clock.charge_query()
        resolved = self._resolved.get(query.ref)
        if resolved is None:
            # An unknown table or column raises here.
            resolved = resolve_column(
                self._resolved, self.db.catalog, query.ref
            )
        dtype, pending, _ = resolved
        bounds = normalise_range(dtype, query.low, query.high)
        if bounds is None:
            result = self.strategy.select_empty(query)
        else:
            result = apply_pending(
                self.strategy.select_keys(query, *bounds),
                pending,
                *bounds,
                clock,
            )
        finished = clock.now()
        wait = self._pending_wait_s
        self._pending_wait_s = 0.0
        response = (finished - started) + wait
        report = self.report
        report.query_count += 1
        report.total_response_s += response
        report.total_wait_s += wait
        report.result_rows += result.count
        if report.records is not None:
            report.records.append(
                QueryRecord(
                    report.query_count, query, response, wait,
                    result.count, report.total_response_s, finished,
                    self.client,
                )
            )
        return result

    def run_batch(
        self, queries: Sequence[RangeQuery]
    ) -> list[SelectionResult]:
        """Answer a window of range queries with shared work.

        The window is grouped by column and planned once per group;
        strategies that support it (standard adaptive cracking, the
        holistic kernel) crack each group's fresh bounds in one
        physical pass and return one replay slot per query
        (:meth:`~IndexingStrategy.begin_batch`), which :meth:`run_window`
        replays, so every query is still accounted on its own and the
        results, response times, cumulative clock totals and tape
        counts are identical to calling :meth:`run_query` one query at
        a time.  Strategies without a batch path, and clocks a
        :class:`WindowAccountant` cannot price (a wall clock, a
        :class:`SimClock` inside a parallel phase), fall back to
        exactly that sequential loop.
        """
        queries = list(queries)
        if not queries:
            return []
        # Resolves every window's column BEFORE the strategy's physical
        # pass: an unknown table/column must fail here, while nothing
        # has been cracked yet, or the already-processed columns would
        # carry silent (uncharged, unlogged) cracks and break
        # batch==sequential equivalence for the rest of the session.
        windows = group_by_column(queries, self.db.catalog, self._resolved)
        clock = self.clock
        slots = None
        if isinstance(clock, SimClock) and not clock.in_parallel:
            slots = self.strategy.begin_batch(queries, windows)
        if slots is None:
            return [self.run_query(query) for query in queries]
        # The probe is built for a window that replays only.
        return self.run_window(
            queries, slots, pending_slots(windows, len(queries))
        )

    def run_window(
        self,
        queries: Sequence[RangeQuery],
        slots: Sequence[WindowSlot],
        pending: Sequence[tuple[PendingWindow, int] | None],
    ) -> list[SelectionResult]:
        """The window loop, for session windows and served client
        lanes alike: replay query ``i`` on ``slots[i]``.

        A slot is a replay context and the query's normalised bounds
        (a strategy's :meth:`~IndexingStrategy.begin_batch`, or a
        serving lane's replays over the shared index, did the window's
        physical work); the context's ``replay_query`` owns the query's
        whole charge stream, ``CostCharge(queries=1)`` overhead
        included, and an empty range costs that overhead alone.
        ``pending`` is :func:`~repro.engine.operators.pending_slots`.
        The session's one :class:`WindowAccountant` prices every
        charge inline (same arithmetic, same left-fold order as
        per-event clock charges, so all timestamps stay bit-identical)
        and settles time plus work counters on this session's clock
        once at window end, where the strategy notes the replayed
        reads (:meth:`~IndexingStrategy.note_window`).  A replay that
        raises settles too: the clock, the report's totals and records
        before it and the strategy's notes (the failed read included)
        are what sequential :meth:`run_query` calls failing at that
        query leave.  Cracks the physical pass made for fresh bounds of
        later queries stay in the index uncharged.
        """
        accountant = self._accountant
        if accountant is None:
            accountant = self._accountant = WindowAccountant(self.clock)
        else:
            accountant.rearm()
        # One bind a context; map and itemgetter add no frame a slot.
        for context in dict.fromkeys(map(_context, slots)):
            context.bind(accountant)
        report = self.report
        records = report.records
        results: list[SelectionResult] = []
        append_result = results.append
        client = self.client
        # Blocking-idle debt is waiting time of the window's first
        # query only (and still owed if that query fails).
        owed = wait = self._pending_wait_s
        first = count = report.query_count
        cumulative = report.total_response_s
        rows = report.result_rows
        try:
            for query, (context, bounds), slotted in zip(
                queries, slots, pending
            ):
                started = accountant.now
                if bounds is None:
                    accountant.charge_query()
                    result = context.empty()
                else:
                    result = context.replay_query(*bounds)
                if slotted is not None:
                    result = slotted[0].apply(slotted[1], result, accountant)
                finished = accountant.now
                response = (finished - started) + wait
                cumulative += response
                rows += result.count
                count += 1
                if records is not None:
                    # Positional: keyword arguments cost a slots
                    # dataclass's __init__ more than twice as much.
                    records.append(
                        QueryRecord(
                            count, query, response, wait, result.count,
                            cumulative, finished, client,
                        )
                    )
                append_result(result)
                wait = 0.0
        finally:
            self._pending_wait_s = wait
            report.total_wait_s += owed - wait
            report.query_count = count
            report.total_response_s = cumulative
            report.result_rows = rows
            accountant.finish()
            # The replayed reads, and the one that raised if any.
            self.strategy.note_window(queries[: count - first + 1])
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

        Returns:
            The window's :class:`IdleRecord`; the report keeps only
            its totals, and the record itself if it has a sink.

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
        report = self.report
        report.idle_count += 1
        report.idle_consumed_s += consumed
        report.idle_debt_s += debt
        record = IdleRecord(
            report.idle_count, nominal, consumed, outcome.actions_done,
            debt, outcome.note,
        )
        if report.records is not None:
            report.records.append(record)
        return record

    # -- persistence -------------------------------------------------------------

    def export_state(self) -> dict:
        """The session's durable accounting counters (snapshots).

        Records are observability history, not engine state -- a
        restored session starts without a sink but keeps the query
        count, the cumulative response and any outstanding blocking
        debt, so its totals continue the same timeline.
        """
        report = self.report
        return {
            "cumulative_s": report.total_response_s,
            "pending_wait_s": self._pending_wait_s,
            "queries_answered": report.query_count,
        }

    def restore_state(self, state: dict) -> None:
        """Adopt previously-exported session counters."""
        self.report.total_response_s = float(state["cumulative_s"])
        self.report.query_count = int(state["queries_answered"])
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
