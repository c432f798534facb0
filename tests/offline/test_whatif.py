"""Unit tests for what-if analysis."""

import pytest

from repro.offline.advisor import OfflineAdvisor
from repro.offline.whatif import WhatIfOptimizer, WorkloadStatement
from repro.storage.catalog import ColumnRef


@pytest.fixture
def optimizer(tiny_db) -> WhatIfOptimizer:
    # The projected model: 10k local rows priced as the paper's 10^8.
    return WhatIfOptimizer(tiny_db.catalog, tiny_db.cost_model)


def _statement(column: str, weight: float = 1.0) -> WorkloadStatement:
    return WorkloadStatement(
        ColumnRef("R", column), 1_000, 2_000, weight=weight
    )


def test_statement_cost_depends_on_configuration(optimizer, a1):
    """An index saves a query on its column nearly the whole scan:
    the probe costs under a hundredth of it."""
    rows = optimizer.catalog.column(a1).row_count
    scan_cost = optimizer.model.scan_seconds(rows)
    indexed_cost = optimizer.model.indexed_query_seconds(rows)
    assert indexed_cost < scan_cost / 100
    assert optimizer.query_gain(a1) == scan_cost - indexed_cost


def test_workload_cost_weights_statements(optimizer):
    """A candidate's benefit is its statements' weights times the
    gain: ten light statements equal one ten times as heavy."""
    advisor = OfflineAdvisor(optimizer)
    light = [_statement("A1")] * 10 + [_statement("A2", weight=9.0)]
    heavy = [_statement("A2", weight=11.0), _statement("A1", weight=10.0)]
    assert [ref.column for ref in advisor.advise(light)[0]] == ["A1", "A2"]
    assert [ref.column for ref in advisor.advise(heavy)[0]] == ["A2", "A1"]


def test_index_benefit_positive_for_hot_column(optimizer, a1):
    assert optimizer.query_gain(a1) > 0


def test_index_benefit_zero_for_unqueried_column(optimizer):
    """A column no statement names is no candidate."""
    workload = [_statement("A1", weight=100.0)]
    picked, left_out = OfflineAdvisor(optimizer).advise(workload, 0.0)
    assert picked == []
    assert left_out == [ColumnRef("R", "A1")]


def test_build_cost_scales_with_rows(optimizer, a1):
    cost = optimizer.build_cost(a1)
    assert cost > 0
