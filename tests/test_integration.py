"""Cross-module integration tests.

Every strategy must produce identical answers on identical workloads
-- the physical design differs, the logical results may not.  Updates
staged through the table layer must be visible regardless of strategy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import TINY
from repro.simtime.clock import SimClock
from repro.storage.database import Database
from repro.storage.loader import build_paper_table
from repro.workload.generators import UniformRangeGenerator
from repro.storage.catalog import ColumnRef

from tests.conftest import ground_truth_count, recorded

STRATEGIES = ("scan", "adaptive", "offline", "online", "holistic")


def _fresh_db() -> Database:
    db = Database(clock=SimClock(TINY.cost_model()))
    db.add_table(build_paper_table(rows=10_000, columns=2, seed=42))
    return db


def _workload(n: int) -> list:
    generator = UniformRangeGenerator(
        ColumnRef("R", "A1"), 1, 100_000_000, 0.02, seed=77
    )
    return list(generator.queries(n))


def test_all_strategies_agree_on_results():
    queries = _workload(60)
    counts_by_strategy: dict[str, list[int]] = {}
    for name in STRATEGIES:
        db = _fresh_db()
        session = db.session(name)
        counts = [session.run_query(q).count for q in queries]
        counts_by_strategy[name] = counts
    reference = counts_by_strategy["scan"]
    for name, counts in counts_by_strategy.items():
        assert counts == reference, f"{name} diverges from scan"


def test_all_strategies_agree_on_values():
    queries = _workload(20)
    value_sets: dict[str, list] = {}
    for name in STRATEGIES:
        db = _fresh_db()
        session = db.session(name)
        sets = [
            sorted(session.run_query(q).values().tolist())
            for q in queries
        ]
        value_sets[name] = sets
    reference = value_sets["scan"]
    for name, sets in value_sets.items():
        assert sets == reference, f"{name} returns different values"


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_pending_inserts_visible_everywhere(strategy):
    db = _fresh_db()
    session = db.session(strategy)
    # Warm the strategy's index first.
    session.select("R", "A1", 40_000_000, 41_000_000)
    db.table("R").insert_rows(
        {"A1": [40_500_000, 40_500_001], "A2": [1, 2]}
    )
    base = ground_truth_count(
        db.column("R", "A1"), 40_000_000, 41_000_000
    )
    result = session.select("R", "A1", 40_000_000, 41_000_000)
    assert result.count == base + 2


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_pending_deletes_subtracted_everywhere(strategy):
    db = _fresh_db()
    session = db.session(strategy)
    column = db.column("R", "A1")
    victim_pos = 123
    victim = int(column.values[victim_pos])
    session.select("R", "A1", victim, victim + 1)
    db.table("R").updates_for("A1").stage_deletes(
        [victim_pos], [victim]
    )
    base = ground_truth_count(column, victim, victim + 1)
    result = session.select("R", "A1", victim, victim + 1)
    assert result.count == base - 1


def test_strategies_disagree_on_time_not_results():
    """The whole point of the paper in one test: same answers, very
    different cumulative response times."""
    queries = _workload(100)
    totals = {}
    for name in ("scan", "adaptive", "holistic"):
        db = _fresh_db()
        session = db.session(name)
        if name == "holistic":
            session.idle(actions=200)
        for query in queries:
            session.run_query(query)
        totals[name] = session.report.total_response_s
    assert totals["holistic"] < totals["adaptive"] < totals["scan"]


def test_virtual_clock_is_deterministic():
    """Two identical runs give bit-identical virtual timings."""

    def run() -> list[float]:
        db = _fresh_db()
        session = recorded(db.session("holistic"))
        session.idle(actions=50)
        for query in _workload(30):
            session.run_query(query)
        return session.report.cumulative_curve()

    assert run() == run()


def test_wall_clock_mode_works_end_to_end():
    """The same experiment code runs under real time measurement."""
    from repro.simtime.clock import WallClock

    db = Database(clock=WallClock())
    db.add_table(build_paper_table(rows=10_000, columns=1, seed=42))
    session = recorded(db.session("adaptive"))
    for query in _workload(10):
        result = session.run_query(query)
        assert result.count >= 0
    assert session.report.total_response_s > 0
    curve = session.report.cumulative_curve()
    assert all(a <= b for a, b in zip(curve, curve[1:]))
