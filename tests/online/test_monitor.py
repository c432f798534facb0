"""Unit tests for the workload monitor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.online.monitor import RECENT_WINDOW, WorkloadMonitor
from repro.storage.catalog import ColumnRef


@pytest.fixture
def monitor() -> WorkloadMonitor:
    return WorkloadMonitor()


def test_record_counts_queries(monitor, a1):
    monitor.record(a1, 0.1)
    monitor.record(a1, 0.2)
    (entry,) = monitor.export_state()["columns"]
    assert entry["query_count"] == 2
    assert monitor.total_queries == 2


def test_unknown_column_has_zero_activity(monitor, a1):
    monitor.record(a1, 0.1)
    assert ColumnRef("R", "A2") not in monitor.observed_columns()
    assert ColumnRef("R", "A2") not in monitor.epoch_counts(since=0.0)


def test_observed_columns_sorted_by_popularity(monitor):
    a1, a2 = ColumnRef("R", "A1"), ColumnRef("R", "A2")
    monitor.record(a2, 0.1)
    for i in range(3):
        monitor.record(a1, 0.2 + i)
    assert monitor.observed_columns() == [a1, a2]


def test_epoch_counts_filters_by_time(monitor, a1):
    monitor.record(a1, 1.0)
    monitor.record(a1, 2.0)
    monitor.record(a1, 3.0)
    counts = monitor.epoch_counts(since=1.5)
    assert counts[a1] == 2


@settings(max_examples=150, deadline=None)
@given(
    timestamps=st.lists(
        st.floats(0.0, 10.0), max_size=RECENT_WINDOW + 40
    ),
    cuts=st.lists(st.integers(0, RECENT_WINDOW + 40), max_size=6),
)
def test_note_many_equals_sequential_records(timestamps, cuts):
    """Any split of a query list into windows -- empty windows
    included -- leaves the state one-by-one ``record`` calls leave."""
    a1 = ColumnRef("R", "A1")
    sequential = WorkloadMonitor()
    for timestamp in timestamps:
        sequential.record(a1, timestamp)
    batched = WorkloadMonitor()
    edges = [0, *sorted(cuts), len(timestamps)]
    for start, stop in zip(edges, edges[1:]):
        batched.note_many(a1, timestamps[start:stop])
    assert batched.export_state() == sequential.export_state()


def test_note_many_empty_window_is_noop(a1):
    monitor = WorkloadMonitor()
    monitor.note_many(a1, [])
    assert monitor.total_queries == 0
    assert monitor.observed_columns() == []


def test_monitor_state_round_trip(monitor, a1):
    monitor.record(a1, 0.1)
    monitor.record(a1, 0.2)
    state = monitor.export_state()
    clone = WorkloadMonitor()
    clone.restore_state(state)
    assert clone.export_state() == state
    # The restored monitor keeps counting where it left off.
    for each in (monitor, clone):
        each.record(a1, 0.3)
    assert clone.export_state() == monitor.export_state()


def test_restore_ignores_keys_the_monitor_no_longer_keeps(monitor, a1):
    """A snapshot entry written before ``coverage``/``first_seen``/
    ``last_seen`` and the range histogram were dropped restores to the
    same counts and recent timestamps."""
    monitor.record(a1, 0.1)
    monitor.record(a1, 0.2)
    state = monitor.export_state()
    old_entry = dict(
        state["columns"][0],
        first_seen=0.1,
        last_seen=0.2,
        coverage=[[100.0, 9e7]],
        histogram=[2] + [1] * 63,
        histogram_low=1.0,
        histogram_width=1562500.0,
    )
    clone = WorkloadMonitor()
    clone.restore_state({**state, "columns": [old_entry]})
    assert clone.export_state() == state
