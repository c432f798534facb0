"""Unit tests for full sorted indexes."""

import numpy as np
import pytest

from repro.config import TINY
from repro.errors import IndexingError, QueryError
from repro.offline.fullindex import FullIndex
from repro.offline.whatif import WhatIfOptimizer
from repro.simtime.clock import SimClock
from repro.storage.catalog import ColumnRef
from repro.storage.database import Database

from tests.conftest import ground_truth_count


def test_unbuilt_index_refuses_probes(small_column):
    index = FullIndex(small_column, SimClock())
    assert not index.is_built
    with pytest.raises(IndexingError, match="not built"):
        index.select_range(0, 10)


def test_build_sorts_and_charges(small_column):
    clock = SimClock()
    index = FullIndex(small_column, clock)
    seconds = index.build()
    assert seconds > 0
    assert index.is_built
    assert index.built_at == pytest.approx(clock.now())
    values = index.sorted_values
    assert np.all(values[:-1] <= values[1:])
    assert clock.total_charge.elements_sorted == small_column.row_count


def test_rebuild_is_free(small_column):
    clock = SimClock()
    index = FullIndex(small_column, clock)
    index.build()
    t = clock.now()
    assert index.build() == 0.0
    assert clock.now() == t


def test_select_matches_ground_truth(small_column, rng):
    index = FullIndex(small_column, SimClock())
    index.build()
    for _ in range(50):
        low = float(rng.uniform(1, 9e7))
        high = low + float(rng.uniform(0, 1e7))
        view = index.select_range(low, high)
        assert view.count == ground_truth_count(small_column, low, high)
        got = view.values()
        assert np.all((got >= low) & (got < high))


def test_probe_cost_is_logarithmic(small_column):
    clock = SimClock()
    index = FullIndex(small_column, clock)
    index.build()
    t0 = clock.now()
    index.select_range(10_000_000, 30_000_000)
    probe = clock.now() - t0
    assert probe < 1e-4  # microseconds, not milliseconds


def test_build_cost_estimate_matches_actual(small_column):
    """The build charges what the what-if optimizer estimates."""
    db = Database(clock=SimClock(TINY.cost_model()))
    db.create_table("R").add_column(small_column)
    estimate = WhatIfOptimizer(db.catalog, db.cost_model).build_cost(
        ColumnRef("R", small_column.name)
    )
    actual = FullIndex(small_column, db.clock).build()
    assert estimate == pytest.approx(actual, rel=1e-9)


def test_inverted_range_rejected(small_column):
    index = FullIndex(small_column, SimClock())
    index.build()
    with pytest.raises(QueryError):
        index.select_range(10, 5)
