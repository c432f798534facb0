"""Exp1: the single-column experiment (paper Figure 3 and Table 2).

Workload: 10^4 random range queries of 1% selectivity on one column of
uniform integers; an idle window equal to the time of X random
refinement actions before the first query and after every 100 queries;
X in {10, 100, 1000}.

Compared systems: plain scans, offline indexing (full sort, advised
a-priori; queries wait if the sort outruns the a-priori idle time),
database cracking (adaptive), and holistic indexing (cracking plus
idle-window auxiliary refinements).

Run at a reduced scale; the virtual clock (:mod:`repro.simtime`)
projects every cost onto the paper's 10^8-row testbed, so the printed
seconds are comparable with the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import ScaleSpec, scale_by_name
from repro.engine.session import IdleRecord, Session, SessionReport
from repro.errors import BenchmarkError
from repro.simtime.clock import SimClock
from repro.storage.database import Database
from repro.storage.loader import build_paper_table
from repro.workload.patterns import Exp1Pattern
from repro.workload.stream import run_stream
from repro.bench.report import (
    curve_at_ranks,
    format_seconds,
    format_series_table,
    format_table,
    log_spaced_ranks,
)

#: The paper's X values (refinement actions per idle window).
PAPER_X_VALUES = (10, 100, 1000)

#: Strategies in the order the paper plots them.
EXP1_STRATEGIES = ("scan", "offline", "adaptive", "holistic")


@dataclass(slots=True)
class StrategyRun:
    """One strategy's run: curve plus idle accounting."""

    strategy: str
    x: int | None
    report: SessionReport
    t_init_s: float = 0.0
    t_total_idle_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.report.total_response_s

    @property
    def curve(self) -> list[float]:
        return self.report.cumulative_curve()


@dataclass(slots=True)
class Exp1Result:
    """All Exp1 runs for one scale."""

    scale: ScaleSpec
    x_values: list[int]
    runs: dict[tuple[str, int | None], StrategyRun] = field(
        default_factory=dict
    )
    sort_time_s: float = 0.0

    def run_for(self, strategy: str, x: int) -> StrategyRun:
        """The run backing column (strategy, X); scan/adaptive are
        X-independent and shared across X values."""
        if (strategy, x) in self.runs:
            return self.runs[(strategy, x)]
        if (strategy, None) in self.runs:
            return self.runs[(strategy, None)]
        raise BenchmarkError(f"no run for {strategy!r} at X={x}")


def _fresh_session(
    scale: ScaleSpec, strategy: str, seed: int, **options: object
) -> tuple[Database, Session]:
    db = Database(clock=SimClock(scale.cost_model()))
    db.add_table(build_paper_table(rows=scale.rows, columns=1, seed=seed))
    session = db.session(strategy, **options)
    # Figure 3 plots every query's cumulative response: keep history.
    session.report.records = []
    return db, session


def _pattern(scale: ScaleSpec, x: int, seed: int) -> Exp1Pattern:
    return Exp1Pattern(
        query_count=scale.query_count,
        refinements_per_idle=x,
        seed=seed,
    )


def run_exp1(
    scale: ScaleSpec | str = "small",
    x_values: tuple[int, ...] = PAPER_X_VALUES,
    seed: int = 42,
) -> Exp1Result:
    """Run Exp1 for every strategy and X; returns all curves.

    Scan and adaptive indexing cannot exploit idle time, so they run
    once and are shared across X values (exactly the paper's point).
    Offline depends on X only through the a-priori window length
    (T_init), which is defined as the time holistic needs for its
    first X refinements -- so holistic runs first.
    """
    if isinstance(scale, str):
        scale = scale_by_name(scale)
    result = Exp1Result(scale=scale, x_values=list(x_values))
    result.sort_time_s = scale.cost_model().sort_seconds(scale.rows)

    # Scan and adaptive: X-independent baselines.
    for strategy in ("scan", "adaptive"):
        db, session = _fresh_session(scale, strategy, seed)
        pattern = _pattern(scale, x_values[0], seed)
        report = run_stream(session, pattern.events())
        result.runs[(strategy, None)] = StrategyRun(
            strategy, None, report
        )

    for x in x_values:
        pattern = _pattern(scale, x, seed)

        # Holistic: exploits every idle window.
        db, session = _fresh_session(scale, "holistic", seed)
        session.hint_workload(pattern.statements())
        report = run_stream(session, pattern.events())
        first_idle = next(
            (r for r in report.records if isinstance(r, IdleRecord)), None
        )
        t_init = first_idle.consumed_s if first_idle else 0.0
        run = StrategyRun(
            "holistic",
            x,
            report,
            t_init_s=t_init,
            t_total_idle_s=report.idle_consumed_s,
        )
        result.runs[("holistic", x)] = run

        # Offline: same a-priori window (T_init); later windows are
        # useless to it.  The advisor wants the index badly enough to
        # build past the window -- queries wait (paper Figure 3).
        db, session = _fresh_session(
            scale, "offline", seed, build_policy="always_build"
        )
        session.hint_workload(pattern.statements())
        session.idle(seconds=t_init)
        for query in pattern.queries():
            session.run_query(query)
        result.runs[("offline", x)] = StrategyRun(
            "offline",
            x,
            session.report,
            t_init_s=t_init,
            t_total_idle_s=t_init,
        )
    return result


def figure3_text(result: Exp1Result) -> str:
    """Render Figure 3: one panel per X, curves sampled log-spaced."""
    parts: list[str] = []
    ranks = log_spaced_ranks(result.scale.query_count)
    for x in result.x_values:
        holistic = result.run_for("holistic", x)
        series = {}
        for strategy in EXP1_STRATEGIES:
            run = result.run_for(strategy, x)
            series[strategy] = curve_at_ranks(run.curve, ranks)
        title = (
            f"Figure 3 ({result.scale.name} scale, projected to paper "
            f"scale): X={x}, "
            f"T_init={format_seconds(holistic.t_init_s)}, "
            f"T_total={format_seconds(holistic.t_total_idle_s)}, "
            f"Time_sort={format_seconds(result.sort_time_s)}"
        )
        parts.append(format_series_table(title, ranks, series))
    return "\n\n".join(parts)


def table2_rows(result: Exp1Result) -> list[list[str]]:
    """Table 2's rows: total seconds per strategy and X."""
    rows: list[list[str]] = []
    for strategy in EXP1_STRATEGIES:
        row = [strategy.capitalize()]
        for x in result.x_values:
            run = result.run_for(strategy, x)
            row.append(f"{run.total_s:.1f} s")
        rows.append(row)
    return rows


def table2_text(result: Exp1Result) -> str:
    headers = ["Indexing", *[f"X={x}" for x in result.x_values]]
    body = format_table(headers, table2_rows(result))
    title = (
        f"Table 2 ({result.scale.name} scale, projected to paper "
        "scale): total time to run all "
        f"{result.scale.query_count} queries"
    )
    return f"{title}\n{body}"
