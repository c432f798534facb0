"""Exp2: the multi-column experiment (paper Figure 4).

Workload: ten columns queried round-robin with random 1%-selectivity
ranges; the workload is known a priori, but the a-priori idle time
fits only two complete sorts (the paper's 55 s).

* Offline indexing spends the window on two full indexes; 20% of the
  queries probe, 80% scan.
* Holistic indexing spreads the same window over all ten columns as
  100 random cracks each, so *every* query benefits immediately.

The paper's acceptance criteria: offline wins only the first two
queries; holistic ends roughly two orders of magnitude ahead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import ScaleSpec, scale_by_name
from repro.engine.session import SessionReport
from repro.simtime.clock import SimClock
from repro.storage.database import Database
from repro.storage.loader import build_paper_table
from repro.workload.patterns import Exp2Pattern
from repro.bench.report import (
    curve_at_ranks,
    format_seconds,
    format_series_table,
    log_spaced_ranks,
)


@dataclass(slots=True)
class Exp2Result:
    """Both Exp2 runs plus the shared idle accounting."""

    scale: ScaleSpec
    offline_report: SessionReport
    holistic_report: SessionReport
    idle_budget_s: float
    holistic_idle_used_s: float
    offline_indexed_columns: int
    holistic_cracks_per_column: int

    @property
    def offline_total_s(self) -> float:
        return self.offline_report.total_response_s

    @property
    def holistic_total_s(self) -> float:
        return self.holistic_report.total_response_s

    @property
    def final_ratio(self) -> float:
        """Offline/holistic cumulative ratio at the end of the run."""
        if self.holistic_total_s <= 0:
            return float("inf")
        return self.offline_total_s / self.holistic_total_s


def run_exp2(
    scale: ScaleSpec | str = "small", seed: int = 42
) -> Exp2Result:
    """Run Exp2 for offline and holistic indexing."""
    if isinstance(scale, str):
        scale = scale_by_name(scale)
    pattern = Exp2Pattern(query_count=scale.query_count, seed=seed)
    columns = len(pattern.columns)
    sort_s = scale.cost_model().sort_seconds(scale.rows)
    idle_budget = pattern.full_indexes_that_fit * sort_s

    # Offline: two full indexes fit the window exactly.
    db = Database(clock=SimClock(scale.cost_model()))
    db.add_table(
        build_paper_table(rows=scale.rows, columns=columns, seed=seed)
    )
    session = db.session("offline", build_policy="fit_budget")
    # Figure 4 plots both runs' cumulative curves: keep history.
    session.report.records = []
    session.hint_workload(pattern.statements())
    session.idle(seconds=idle_budget)
    for query in pattern.queries():
        session.run_query(query)
    offline_report = session.report

    # Holistic: the same window spent as 100 cracks on each column.
    db = Database(clock=SimClock(scale.cost_model()))
    db.add_table(
        build_paper_table(rows=scale.rows, columns=columns, seed=seed)
    )
    session = db.session("holistic", policy="round_robin")
    session.report.records = []
    session.hint_workload(pattern.statements())
    idle_record = session.idle(
        actions=pattern.cracks_per_column * columns
    )
    for query in pattern.queries():
        session.run_query(query)
    holistic_report = session.report

    return Exp2Result(
        scale=scale,
        offline_report=offline_report,
        holistic_report=holistic_report,
        idle_budget_s=idle_budget,
        holistic_idle_used_s=idle_record.consumed_s,
        offline_indexed_columns=pattern.full_indexes_that_fit,
        holistic_cracks_per_column=pattern.cracks_per_column,
    )


def figure4_text(result: Exp2Result) -> str:
    """Render Figure 4: offline vs holistic cumulative curves."""
    ranks = log_spaced_ranks(result.scale.query_count)
    series = {
        "offline": curve_at_ranks(
            result.offline_report.cumulative_curve(), ranks
        ),
        "holistic": curve_at_ranks(
            result.holistic_report.cumulative_curve(), ranks
        ),
    }
    title = (
        f"Figure 4 ({result.scale.name} scale, projected to paper "
        f"scale): a-priori idle={format_seconds(result.idle_budget_s)} "
        f"(fits {result.offline_indexed_columns} full sorts); holistic "
        f"spent {format_seconds(result.holistic_idle_used_s)} on "
        f"{result.holistic_cracks_per_column} cracks/column; final "
        f"offline/holistic ratio={result.final_ratio:.0f}x"
    )
    return format_series_table(title, ranks, series)
