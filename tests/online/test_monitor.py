"""Unit tests for the workload monitor."""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.online.monitor import HISTOGRAM_BINS, WorkloadMonitor
from repro.storage.catalog import ColumnRef


@pytest.fixture
def monitor(tiny_db) -> WorkloadMonitor:
    return WorkloadMonitor(tiny_db.catalog)


def test_record_counts_queries(monitor, a1):
    monitor.record(a1, 100, 200, 0.1)
    monitor.record(a1, 300, 400, 0.2)
    assert monitor.query_count(a1) == 2
    assert monitor.total_queries == 2


def test_unknown_column_has_zero_activity(monitor):
    assert monitor.query_count(ColumnRef("R", "A2")) == 0


def test_observed_columns_sorted_by_popularity(monitor):
    a1, a2 = ColumnRef("R", "A1"), ColumnRef("R", "A2")
    monitor.record(a2, 0, 1, 0.1)
    for i in range(3):
        monitor.record(a1, 0, 1, 0.2 + i)
    assert monitor.observed_columns() == [a1, a2]


def test_hot_ranges_from_histogram(monitor, a1, tiny_db):
    stats = tiny_db.column("R", "A1").stats
    width = stats.value_span / HISTOGRAM_BINS
    hot_low = stats.min_value + 2 * width
    for _ in range(5):
        monitor.record(a1, hot_low, hot_low + width / 2, 0.1)
    monitor.record(a1, stats.min_value, stats.min_value + 1, 0.2)
    hot = monitor.hot_ranges(a1, min_queries=5)
    assert len(hot) == 1
    low, high, count = hot[0]
    assert count >= 5
    assert low <= hot_low < high


def test_is_column_hot_threshold(monitor, a1):
    for _ in range(4):
        monitor.record(a1, 0, 1, 0.1)
    assert monitor.is_column_hot(a1, 4)
    assert not monitor.is_column_hot(a1, 5)


def test_epoch_counts_filters_by_time(monitor, a1):
    monitor.record(a1, 0, 1, 1.0)
    monitor.record(a1, 0, 1, 2.0)
    monitor.record(a1, 0, 1, 3.0)
    counts = monitor.epoch_counts(since=1.5)
    assert counts[a1] == 2


# Bounds around the paper domain [1, 1e8]: inside it, beyond both ends,
# the exact ends, open-ended and NaN.  The small pool makes empty
# (``low == high``) and inverted pairs common.
_BOUND = st.one_of(
    st.sampled_from(
        [-math.inf, -5e7, 0.0, 1.0, 3e7, 1e8, 2e8, math.inf, math.nan]
    ),
    st.floats(min_value=-1e8, max_value=3e8, allow_nan=False),
)
_QUERY = st.tuples(_BOUND, _BOUND)
# ``tiny_db`` is only read (column statistics), so sharing it between
# the examples of one property is safe.
_PROPERTY = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@_PROPERTY
@given(
    queries=st.lists(_QUERY, max_size=40),
    cuts=st.lists(st.integers(0, 40), max_size=6),
)
def test_note_many_equals_sequential_records(tiny_db, a1, queries, cuts):
    """Any split of a query list into windows -- empty windows
    included -- leaves the state one-by-one ``record`` calls leave."""
    timestamps = [0.25 * i for i in range(len(queries))]
    sequential = WorkloadMonitor(tiny_db.catalog)
    for (low, high), timestamp in zip(queries, timestamps):
        sequential.record(a1, low, high, timestamp)
    batched = WorkloadMonitor(tiny_db.catalog)
    edges = [0, *sorted(cuts), len(queries)]
    for start, stop in zip(edges, edges[1:]):
        window = queries[start:stop]
        batched.note_many(
            a1,
            [low for low, _ in window],
            [high for _, high in window],
            timestamps[start:stop],
        )
    assert batched.export_state() == sequential.export_state()


@_PROPERTY
@given(queries=st.lists(_QUERY, min_size=1, max_size=40))
def test_histogram_equals_naive_per_bin_count(tiny_db, a1, queries):
    """The materialised difference array counts, per bin, the non-empty
    queries whose range -- clamped to the domain -- touches the bin."""
    monitor = WorkloadMonitor(tiny_db.catalog)
    for low, high in queries:
        monitor.record(a1, low, high, 0.0)
    stats = tiny_db.column("R", "A1").stats
    width = stats.value_span / HISTOGRAM_BINS
    top = HISTOGRAM_BINS - 1

    def bin_of(bound: float) -> int:
        if bound == math.inf:
            return top
        if bound == -math.inf:
            return 0
        return min(max(int((bound - stats.min_value) // width), 0), top)

    expected = [0] * HISTOGRAM_BINS
    for low, high in queries:
        if high > low:
            for b in range(bin_of(low), bin_of(high) + 1):
                expected[b] += 1
    (entry,) = monitor.export_state()["columns"]
    assert entry["histogram"] == expected


def test_note_many_empty_window_is_noop(tiny_db, a1):
    monitor = WorkloadMonitor(tiny_db.catalog)
    monitor.note_many(a1, [], [], [])
    assert monitor.total_queries == 0
    assert monitor.observed_columns() == []


def test_hot_ranges_tolerates_single_timestamp_column(monitor, a1, tiny_db):
    """Every observation sharing one timestamp must not break the
    hot-range trigger."""
    stats = tiny_db.column("R", "A1").stats
    width = stats.value_span / HISTOGRAM_BINS
    hot_low = stats.min_value + 3 * width
    for _ in range(6):
        monitor.record(a1, hot_low, hot_low + width / 2, 1.0)
    hot = monitor.hot_ranges(a1, min_queries=6)
    assert len(hot) == 1
    low, high, count = hot[0]
    assert count >= 6
    assert low <= hot_low < high


def test_monitor_state_round_trip(monitor, a1, tiny_db):
    monitor.record(a1, 100, 200, 0.1)
    monitor.record(a1, 150, 3e7, 0.2)
    state = monitor.export_state()
    clone = WorkloadMonitor(tiny_db.catalog)
    clone.restore_state(state)
    assert clone.export_state() == state
    # The restored difference array keeps counting where it left off.
    for each in (monitor, clone):
        each.record(a1, 2e7, 5e7, 0.3)
    assert clone.export_state() == monitor.export_state()


def test_restore_ignores_keys_the_monitor_no_longer_keeps(
    monitor, a1, tiny_db
):
    """A snapshot entry written before ``coverage``/``first_seen``/
    ``last_seen`` were dropped restores to the same counts, recent
    timestamps and histogram."""
    monitor.record(a1, 100, 2e7, 0.1)
    monitor.record(a1, 1e7, 9e7, 0.2)
    state = monitor.export_state()
    old_entry = dict(
        state["columns"][0],
        first_seen=0.1,
        last_seen=0.2,
        coverage=[[100.0, 9e7]],
    )
    clone = WorkloadMonitor(tiny_db.catalog)
    clone.restore_state({**state, "columns": [old_entry]})
    assert clone.export_state() == state
