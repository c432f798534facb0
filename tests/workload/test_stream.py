"""Unit tests for workload streams."""

import pytest

from repro.engine.query import RangeQuery
from repro.engine.session import IdleRecord, QueryRecord
from repro.errors import WorkloadError
from repro.storage.catalog import ColumnRef
from repro.workload.stream import IdleEvent, QueryEvent, run_stream
from tests.conftest import query_records, recorded


def _queries(n: int) -> list[RangeQuery]:
    return [
        RangeQuery(ColumnRef("R", "A1"), i * 1e5, (i + 1) * 1e5)
        for i in range(n)
    ]


def _with_idles(queries, every, idle):
    """``idle`` first and after every ``every`` queries (Exp1's shape)."""
    events = [idle]
    for i, query in enumerate(queries, 1):
        events.append(QueryEvent(query))
        if i % every == 0:
            events.append(idle)
    return events


def test_idle_event_validation():
    with pytest.raises(WorkloadError):
        IdleEvent()
    with pytest.raises(WorkloadError):
        IdleEvent(seconds=-1)
    with pytest.raises(WorkloadError):
        IdleEvent(actions=-1)
    assert IdleEvent(seconds=0.5).seconds == 0.5
    assert IdleEvent(actions=3).actions == 3


def test_run_stream_executes_everything(tiny_db):
    session = tiny_db.session("holistic")
    events = _with_idles(_queries(4), 2, IdleEvent(actions=2))
    report = run_stream(session, events)
    assert report.query_count == 4
    assert report.idle_count == 3
    assert report is session.report


def test_run_stream_runs_each_idle_between_its_queries(tiny_db):
    """Every event runs in stream order: an idle window runs after the
    queries before it and before the queries after it."""
    session = recorded(tiny_db.session("holistic", seed=2))
    events = _with_idles(_queries(5), 2, IdleEvent(actions=3))
    run_stream(session, events)
    assert [type(r) for r in session.report.records] == [
        IdleRecord if isinstance(e, IdleEvent) else QueryRecord
        for e in events
    ]
    assert [r.query.low for r in query_records(session.report)] == [
        e.query.low for e in events if isinstance(e, QueryEvent)
    ]


def test_run_stream_rejects_unknown_events(tiny_db):
    session = tiny_db.session("scan")
    with pytest.raises(WorkloadError, match="unknown workload event"):
        run_stream(session, [QueryEvent(_queries(1)[0]), "not-an-event"])
    # The events before the unknown one ran.
    assert session.report.query_count == 1
