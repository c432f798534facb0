"""Unit tests for the workload monitor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.online.monitor import WorkloadMonitor
from repro.storage.catalog import ColumnRef


@pytest.fixture
def monitor() -> WorkloadMonitor:
    return WorkloadMonitor()


def test_record_counts_queries(monitor, a1):
    monitor.record(a1)
    monitor.record(a1)
    (entry,) = monitor.export_state()["columns"]
    assert entry["query_count"] == 2
    assert monitor.total_queries == 2


def test_unknown_column_has_zero_activity(monitor, a1):
    monitor.record(a1)
    assert ColumnRef("R", "A2") not in monitor.observed_columns()
    assert ColumnRef("R", "A2") not in monitor.query_counts


def test_observed_columns_sorted_by_popularity(monitor):
    a1, a2 = ColumnRef("R", "A1"), ColumnRef("R", "A2")
    monitor.record(a2)
    for i in range(3):
        monitor.record(a1)
    assert monitor.observed_columns() == [a1, a2]


@settings(max_examples=150, deadline=None)
@given(
    queries=st.integers(0, 300),
    cuts=st.lists(st.integers(0, 300), max_size=6),
)
def test_note_many_equals_sequential_records(queries, cuts):
    """Any split of a query list into windows -- empty windows
    included -- leaves the state one-by-one ``record`` calls leave."""
    a1 = ColumnRef("R", "A1")
    sequential = WorkloadMonitor()
    for _ in range(queries):
        sequential.record(a1)
    batched = WorkloadMonitor()
    edges = [0, *sorted(min(cut, queries) for cut in cuts), queries]
    for start, stop in zip(edges, edges[1:]):
        batched.note_many(a1, stop - start)
    assert batched.export_state() == sequential.export_state()


def test_note_many_empty_window_is_noop(a1):
    monitor = WorkloadMonitor()
    monitor.note_many(a1, 0)
    assert monitor.total_queries == 0
    assert monitor.observed_columns() == []


def test_monitor_state_round_trip(monitor, a1):
    monitor.record(a1)
    monitor.record(a1)
    state = monitor.export_state()
    clone = WorkloadMonitor()
    clone.restore_state(state)
    assert clone.export_state() == state
    # The restored monitor keeps counting where it left off.
    for each in (monitor, clone):
        each.record(a1)
    assert clone.export_state() == monitor.export_state()


def test_restore_refuses_format_1_monitor_keys(monitor, a1):
    """A format-1 entry also carried ``coverage``/``first_seen``/
    ``last_seen``, a range histogram and ``recent`` timestamps:
    restore takes exactly the keys
    :meth:`WorkloadMonitor.export_state` writes."""
    monitor.record(a1)
    monitor.record(a1)
    state = monitor.export_state()
    old_entry = dict(
        state["columns"][0],
        first_seen=0.1,
        last_seen=0.2,
        coverage=[[100.0, 9e7]],
        histogram=[2] + [1] * 63,
        histogram_low=1.0,
        histogram_width=1562500.0,
        recent=[0.1, 0.2],
    )
    clone = WorkloadMonitor()
    for shape in (
        {**state, "columns": [old_entry]},
        {**state, "recent": [0.1, 0.2]},
        {"columns": state["columns"]},
    ):
        with pytest.raises(ValueError):
            clone.restore_state(shape)
    assert clone.export_state() == WorkloadMonitor().export_state()
    clone.restore_state(state)
    assert clone.export_state() == state
