"""Unit tests for workload streams."""

import pytest

from repro.engine.query import RangeQuery
from repro.engine.session import IdleRecord
from repro.errors import WorkloadError
from repro.storage.catalog import ColumnRef
from repro.workload.stream import (
    IdleEvent,
    QueryEvent,
    run_stream_batched,
)
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
    report = run_stream_batched(session, events, 1)
    assert report.query_count == 4
    assert report.idle_count == 3
    assert report is session.report


def test_run_stream_rejects_unknown_events(tiny_db):
    session = tiny_db.session("scan")
    with pytest.raises(WorkloadError, match="unknown workload event"):
        run_stream_batched(session, ["not-an-event"], 1)


# -- windowed (batched) streams ------------------------------------------


def _grid_queries(count: int, seed: int = 5) -> list[RangeQuery]:
    import numpy as np

    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(count):
        low = float(rng.uniform(0, 9e7))
        queries.append(
            RangeQuery(ColumnRef("R", "A1"), low, low + 2e6)
        )
    return queries


def test_run_stream_batched_matches_run_stream():
    from repro.simtime.clock import SimClock
    from repro.storage.database import Database
    from repro.storage.loader import build_paper_table
    def fresh_session():
        db = Database(clock=SimClock())
        db.add_table(build_paper_table(rows=5000, columns=1, seed=4))
        return recorded(db.session("holistic", seed=2))

    queries = _grid_queries(20)
    events = _with_idles(queries, 7, IdleEvent(actions=3))
    base = run_stream_batched(fresh_session(), events, 1)
    batched = run_stream_batched(fresh_session(), events, window=6)
    assert [repr(r.response_s) for r in query_records(batched)] == [
        repr(r.response_s) for r in query_records(base)
    ]
    # Idle windows keep their places between the queries.
    assert [type(r) for r in batched.records] == [
        type(r) for r in base.records
    ]
    idles = [
        [repr(r.nominal_s) for r in rep.records if isinstance(r, IdleRecord)]
        for rep in (base, batched)
    ]
    assert idles[0] == idles[1] and len(idles[0]) == 3


def test_run_stream_batched_query_only_fast_path(tiny_db):
    """A query-only stream batches through the same buffered loop as
    one with idle windows: 11 queries in windows of 4."""
    events = [QueryEvent(q) for q in _grid_queries(11)]
    report = run_stream_batched(
        tiny_db.session("adaptive"), events, window=4
    )
    assert report.query_count == 11


def test_run_stream_batched_rejects_bad_window(tiny_db):
    with pytest.raises(WorkloadError):
        run_stream_batched(tiny_db.session("scan"), [], window=0)


def test_query_stream_runs_and_counts(tiny_db):
    from repro.workload.stream import QueryStream

    stream = QueryStream(QueryEvent(q) for q in _grid_queries(9))
    assert sum(isinstance(e, QueryEvent) for e in stream.events) == 9
    assert len(stream) == 9
    base = stream.run_windowed(recorded(tiny_db.session("adaptive")), 1)
    windowed = stream.run_windowed(recorded(tiny_db.session("adaptive")), 4)
    assert [r.result_count for r in query_records(windowed)] == [
        r.result_count for r in query_records(base)
    ]
    assert windowed.result_rows == base.result_rows
