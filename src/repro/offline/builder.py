"""The budgeted index builder.

Executes an advisor recommendation inside an idle-time window.  Builds
run one index at a time (a sort is not usefully preemptible in the
offline model); when the budget runs out mid-build the build still
completes but the overrun is recorded -- the first arriving query will
wait for it, which is exactly the penalty the paper's Figure 3 shows
for offline indexing when ``T_init < Time_sort``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.offline.fullindex import FullIndex
from repro.simtime.clock import Clock
from repro.storage.catalog import Catalog, ColumnRef


@dataclass(slots=True)
class BuildRecord:
    """Outcome of one index build."""

    ref: ColumnRef
    started_at: float
    finished_at: float
    cost_s: float


@dataclass(slots=True)
class BuildReport:
    """Outcome of a build session."""

    built: list[BuildRecord] = field(default_factory=list)
    skipped: list[ColumnRef] = field(default_factory=list)
    budget_s: float | None = None
    overrun_s: float = 0.0


class IndexBuilder:
    """Builds full indexes under a time budget.

    Args:
        catalog: resolves column references.
        clock: the shared time source; builds advance it.
    """

    def __init__(self, catalog: Catalog, clock: Clock) -> None:
        self.catalog = catalog
        self.clock = clock
        self.indexes: dict[ColumnRef, FullIndex] = {}

    def index_for(self, ref: ColumnRef) -> FullIndex | None:
        """The built index on ``ref``, or None."""
        index = self.indexes.get(ref)
        if index is not None and index.is_built:
            return index
        return None

    def build_now(self, ref: ColumnRef) -> BuildRecord:
        """Build one index immediately, regardless of budget."""
        column = self.catalog.column(ref)
        index = self.indexes.get(ref)
        if index is None:
            index = FullIndex(column, self.clock)
            self.indexes[ref] = index
        started = self.clock.now()
        cost = index.build()
        return BuildRecord(
            ref=ref,
            started_at=started,
            finished_at=self.clock.now(),
            cost_s=cost,
        )

    def build_within(
        self, refs: list[ColumnRef], budget_s: float | None = None
    ) -> BuildReport:
        """Build indexes in order until the budget is exhausted.

        An index whose *estimated* cost no longer fits the remaining
        budget is skipped (the offline tool knows sort costs well); if
        an actual build overruns the estimate the overrun is recorded.
        """
        report = BuildReport(budget_s=budget_s)
        remaining = float("inf") if budget_s is None else float(budget_s)
        for ref in refs:
            column = self.catalog.column(ref)
            index = self.indexes.get(ref)
            if index is None:
                index = FullIndex(column, self.clock)
                self.indexes[ref] = index
            if index.is_built:
                continue
            estimate = index.build_cost_estimate()
            if estimate > remaining:
                report.skipped.append(ref)
                continue
            record = self.build_now(ref)
            report.built.append(record)
            remaining -= record.cost_s
            if remaining < 0:
                report.overrun_s += -remaining
                remaining = 0.0
        return report
