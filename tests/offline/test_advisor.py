"""Unit tests for the offline advisor."""

import pytest

from repro.errors import ConfigError
from repro.offline.advisor import OfflineAdvisor
from repro.offline.whatif import WhatIfOptimizer, WorkloadStatement
from repro.storage.catalog import ColumnRef


@pytest.fixture
def advisor(tiny_db) -> OfflineAdvisor:
    return OfflineAdvisor(
        WhatIfOptimizer(tiny_db.catalog, tiny_db.cost_model)
    )


def _stmt(column: str, weight: float) -> WorkloadStatement:
    return WorkloadStatement(
        ColumnRef("R", column), 1_000, 2_000, weight=weight
    )


def test_candidates_deduplicate_columns(advisor):
    workload = [_stmt("A1", 1), _stmt("A2", 1), _stmt("A1", 2)]
    assert advisor.candidates(workload) == [
        ColumnRef("R", "A1"),
        ColumnRef("R", "A2"),
    ]


def test_unlimited_budget_recommends_all_useful(advisor):
    workload = [_stmt("A1", 100), _stmt("A2", 50), _stmt("A3", 10)]
    report = advisor.advise(workload)
    recommended = [r.ref.column for r in report.recommended]
    assert set(recommended) == {"A1", "A2", "A3"}
    # Greedy order follows benefit.
    assert recommended[0] == "A1"


def test_budget_limits_builds(advisor, tiny_db):
    workload = [_stmt("A1", 100), _stmt("A2", 50), _stmt("A3", 10)]
    one_build = tiny_db.cost_model.sort_seconds(
        tiny_db.column("R", "A1").row_count
    )
    report = advisor.advise(workload, budget_s=one_build * 1.5)
    assert len(report.recommended) == 1
    assert report.recommended[0].ref.column == "A1"
    assert len(report.rejected) >= 1
    assert sum(r.build_cost_s for r in report.recommended) <= one_build * 1.5


def test_zero_budget_recommends_nothing(advisor):
    workload = [_stmt("A1", 100)]
    report = advisor.advise(workload, budget_s=0.0)
    assert report.recommended == []


def test_max_indexes_cap(advisor):
    workload = [_stmt("A1", 100), _stmt("A2", 50)]
    report = advisor.advise(workload, max_indexes=1)
    assert len(report.recommended) == 1


def test_negative_budget_rejected(advisor):
    with pytest.raises(ConfigError):
        advisor.advise([], budget_s=-1.0)
    with pytest.raises(ConfigError):
        advisor.advise([], max_indexes=-1)


def test_report_tracks_whatif_calls(advisor):
    workload = [_stmt("A1", 100), _stmt("A2", 50)]
    report = advisor.advise(workload)
    assert report.whatif_calls > 0


def test_benefit_per_build_second_ordering(advisor):
    workload = [_stmt("A1", 100), _stmt("A2", 1)]
    report = advisor.advise(workload)
    benefits = [r.benefit_per_build_second for r in report.recommended]
    assert benefits == sorted(benefits, reverse=True)


def test_zero_cost_zero_benefit_is_not_infinitely_attractive():
    """Regression: a free build with no benefit returned inf and could
    outrank genuinely beneficial candidates in the greedy pick."""
    from repro.offline.advisor import Recommendation

    useless = Recommendation(ColumnRef("R", "A1"), 0.0, 0.0)
    useful = Recommendation(ColumnRef("R", "A2"), 5.0, 2.0)
    assert useless.benefit_per_build_second == 0.0
    assert (
        useful.benefit_per_build_second
        > useless.benefit_per_build_second
    )
    # A free build that does buy time still ranks above everything.
    free_win = Recommendation(ColumnRef("R", "A3"), 1.0, 0.0)
    assert free_win.benefit_per_build_second == float("inf")
    ranked = sorted(
        [useless, useful, free_win],
        key=lambda r: r.benefit_per_build_second,
        reverse=True,
    )
    assert [r.ref.column for r in ranked] == ["A3", "A2", "A1"]
