"""Unit tests for the offline advisor."""

import pytest

from repro.config import SMALL
from repro.errors import ConfigError
from repro.offline.advisor import OfflineAdvisor, benefit_per_build_second
from repro.offline.whatif import WhatIfOptimizer, WorkloadStatement
from repro.simtime.clock import SimClock
from repro.storage.catalog import ColumnRef
from repro.storage.database import Database
from repro.storage.loader import build_paper_table
from repro.workload.patterns import Exp2Pattern


@pytest.fixture
def advisor(tiny_db) -> OfflineAdvisor:
    return OfflineAdvisor(
        WhatIfOptimizer(tiny_db.catalog, tiny_db.cost_model)
    )


def _stmt(column: str, weight: float) -> WorkloadStatement:
    return WorkloadStatement(
        ColumnRef("R", column), 1_000, 2_000, weight=weight
    )


def _columns(refs: list[ColumnRef]) -> list[str]:
    return [ref.column for ref in refs]


def test_candidates_deduplicate_columns(advisor):
    """Each column is one candidate, scored from all its statements."""
    workload = [_stmt("A1", 1), _stmt("A2", 2), _stmt("A1", 2)]
    picked, left_out = advisor.advise(workload)
    assert _columns(picked) == ["A1", "A2"]
    assert left_out == []


def test_ties_keep_first_seen_order(advisor):
    workload = [_stmt("A3", 5), _stmt("A1", 5), _stmt("A2", 5)]
    picked, _ = advisor.advise(workload)
    assert _columns(picked) == ["A3", "A1", "A2"]


def test_exp2_budget_sorts_the_first_two_columns():
    """Exp2's ten equally weighted columns tie; a budget of two sorts
    builds the first two, not two that rounding noise favours."""
    db = Database(clock=SimClock(SMALL.cost_model()))
    db.add_table(build_paper_table(rows=100_000, columns=10, seed=42))
    optimizer = WhatIfOptimizer(db.catalog, db.cost_model)
    two_sorts = 2 * optimizer.build_cost(ColumnRef("R", "A1"))
    picked, left_out = OfflineAdvisor(optimizer).advise(
        Exp2Pattern().statements(), budget_s=two_sorts
    )
    assert _columns(picked) == ["A1", "A2"]
    assert _columns(left_out) == [f"A{i}" for i in range(3, 11)]


def test_unlimited_budget_recommends_all_useful(advisor):
    workload = [_stmt("A1", 100), _stmt("A2", 50), _stmt("A3", 10)]
    picked, left_out = advisor.advise(workload)
    assert set(_columns(picked)) == {"A1", "A2", "A3"}
    # Greedy order follows benefit.
    assert picked[0].column == "A1"
    assert left_out == []


def test_budget_limits_builds(advisor, tiny_db):
    workload = [_stmt("A1", 100), _stmt("A2", 50), _stmt("A3", 10)]
    one_build = tiny_db.cost_model.sort_seconds(
        tiny_db.column("R", "A1").row_count
    )
    picked, left_out = advisor.advise(workload, budget_s=one_build * 1.5)
    assert _columns(picked) == ["A1"]
    assert _columns(left_out) == ["A2", "A3"]
    assert advisor.optimizer.build_cost(picked[0]) <= one_build * 1.5


def test_zero_budget_recommends_nothing(advisor):
    workload = [_stmt("A1", 100)]
    picked, left_out = advisor.advise(workload, budget_s=0.0)
    assert picked == []
    assert _columns(left_out) == ["A1"]


def test_negative_budget_rejected(advisor):
    with pytest.raises(ConfigError):
        advisor.advise([], budget_s=-1.0)


def test_benefit_per_build_second_ordering(advisor):
    workload = [_stmt("A2", 1), _stmt("A1", 100)]
    picked, _ = advisor.advise(workload)
    optimizer = advisor.optimizer
    weights = {ColumnRef("R", "A1"): 100, ColumnRef("R", "A2"): 1}
    benefits = [
        benefit_per_build_second(
            weights[ref] * optimizer.query_gain(ref),
            optimizer.build_cost(ref),
        )
        for ref in picked
    ]
    assert _columns(picked) == ["A1", "A2"]
    assert benefits == sorted(benefits, reverse=True)


def test_zero_cost_zero_benefit_is_not_infinitely_attractive():
    """Regression: a free build with no benefit returned inf and could
    outrank genuinely beneficial candidates in the greedy pick."""
    useless = benefit_per_build_second(0.0, 0.0)
    useful = benefit_per_build_second(5.0, 2.0)
    assert useless == 0.0
    assert useful > useless
    # A free build that does buy time still ranks above everything.
    free_win = benefit_per_build_second(1.0, 0.0)
    assert free_win == float("inf")
    assert sorted([useless, useful, free_win], reverse=True) == [
        free_win,
        useful,
        useless,
    ]
