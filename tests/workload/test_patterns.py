"""Unit tests for the paper's workload patterns."""

import pytest

from repro.errors import WorkloadError
from repro.storage.loader import build_paper_table
from repro.workload.patterns import (
    Exp1Pattern,
    Exp2Pattern,
    verify_table_matches,
)
from repro.workload.stream import IdleEvent, QueryEvent


def test_exp1_event_schedule():
    pattern = Exp1Pattern(
        query_count=250, idle_every=100, refinements_per_idle=10
    )
    events = list(pattern.events())
    idles = [e for e in events if isinstance(e, IdleEvent)]
    queries = [e for e in events if isinstance(e, QueryEvent)]
    assert len(queries) == 250
    # One leading window plus one after query 100 and 200.
    assert len(idles) == 3
    assert isinstance(events[0], IdleEvent)
    assert all(idle.actions == 10 for idle in idles)
    # Idle windows sit exactly after multiples of 100 queries.
    positions = [i for i, e in enumerate(events) if isinstance(e, IdleEvent)]
    assert positions == [0, 101, 202]


def test_exp1_queries_have_paper_selectivity():
    pattern = Exp1Pattern(query_count=20)
    for query in pattern.queries():
        assert query.high - query.low == pytest.approx(
            (pattern.domain_high - pattern.domain_low) * 0.01
        )
        assert query.ref.column == "A1"


def test_exp1_statements_weighting():
    pattern = Exp1Pattern(query_count=500)
    statements = pattern.statements()
    assert len(statements) == 1
    assert statements[0].weight == 500.0


def test_exp2_round_robin_order():
    pattern = Exp2Pattern(query_count=20)
    columns = [q.ref.column for q in pattern.queries()]
    assert columns[:10] == [f"A{i}" for i in range(1, 11)]
    assert columns[10:20] == [f"A{i}" for i in range(1, 11)]


def test_exp2_statements_equal_weight():
    pattern = Exp2Pattern(query_count=100)
    statements = pattern.statements()
    assert len(statements) == 10
    assert all(s.weight == 10.0 for s in statements)


def test_exp2_validation():
    with pytest.raises(WorkloadError):
        Exp2Pattern(columns=[])
    with pytest.raises(WorkloadError):
        Exp2Pattern(columns=["A1"], full_indexes_that_fit=2)


def test_verify_table_matches():
    table = build_paper_table(rows=10, columns=2, seed=1)
    verify_table_matches(Exp1Pattern(), table)
    with pytest.raises(WorkloadError, match="lacks column"):
        verify_table_matches(Exp2Pattern(), table)  # needs A1..A10


def test_exp1_events_are_regenerable():
    pattern = Exp1Pattern(query_count=30, seed=5)
    first = [
        e.query.low
        for e in pattern.events()
        if isinstance(e, QueryEvent)
    ]
    second = [
        e.query.low
        for e in pattern.events()
        if isinstance(e, QueryEvent)
    ]
    assert first == second
