"""Unit tests for the COLT-style online tuner."""

import pytest

from repro.errors import ConfigError
from repro.offline.builder import IndexBuilder
from repro.offline.whatif import WhatIfOptimizer
from repro.online.colt import ColtConfig, ColtTuner
from repro.online.monitor import WorkloadMonitor
from repro.storage.catalog import ColumnRef


@pytest.fixture
def tuner(tiny_db) -> ColtTuner:
    monitor = WorkloadMonitor()
    optimizer = WhatIfOptimizer(tiny_db.catalog, tiny_db.cost_model)
    builder = IndexBuilder(tiny_db.catalog, tiny_db.clock)
    return ColtTuner(
        monitor,
        optimizer,
        builder,
        ColtConfig(horizon_queries=1_000, drop_after_epochs=2),
    )


def _hammer(tuner, ref, n):
    for _ in range(n):
        tuner.monitor.record(ref)


def test_hot_column_gets_an_index(tuner, a1):
    _hammer(tuner, a1, 50)
    decision = tuner.reevaluate(epoch=1)
    assert a1 in decision.built
    assert tuner.index_for(a1) is not None


def test_no_queries_no_builds(tuner, a1):
    decision = tuner.reevaluate(epoch=1)
    assert decision.built == []
    assert tuner.index_for(a1) is None


def test_cold_index_is_dropped(tuner, a1):
    _hammer(tuner, a1, 50)
    tuner.reevaluate(epoch=1)
    tuner.note_index_use(a1)
    # Epochs pass without any use of the index.
    tuner.reevaluate(epoch=2)
    decision = tuner.reevaluate(epoch=5)
    assert a1 in decision.dropped
    assert tuner.index_for(a1) is None


def test_used_index_survives(tuner, a1):
    _hammer(tuner, a1, 50)
    tuner.reevaluate(epoch=1)
    for epoch in range(2, 6):
        tuner.note_index_use(a1)
        decision = tuner.reevaluate(epoch=epoch)
        assert a1 not in decision.dropped


def test_max_indexes_cap(tiny_db):
    monitor = WorkloadMonitor()
    optimizer = WhatIfOptimizer(tiny_db.catalog, tiny_db.cost_model)
    builder = IndexBuilder(tiny_db.catalog, tiny_db.clock)
    tuner = ColtTuner(
        monitor, optimizer, builder, ColtConfig(max_indexes=1)
    )
    a1, a2 = ColumnRef("R", "A1"), ColumnRef("R", "A2")
    _hammer(tuner, a1, 50)
    _hammer(tuner, a2, 40)
    tuner.reevaluate(epoch=1)
    decision = tuner.reevaluate(epoch=2)
    assert decision.built == []
    assert tuner.index_for(a2) is None


def test_epoch_counts_are_not_capped(tuner, a1):
    """An epoch counts every query on a column, however many."""
    a2 = ColumnRef("R", "A2")
    _hammer(tuner, a1, 300)
    _hammer(tuner, a2, 10)
    decision = tuner.reevaluate(epoch=1)
    assert decision.counts == {a1: 300, a2: 10}
    _hammer(tuner, a2, 4)
    assert tuner.reevaluate(epoch=2).counts == {a2: 4}


def test_config_validation():
    with pytest.raises(ConfigError):
        ColtConfig(horizon_queries=0)
    with pytest.raises(ConfigError):
        ColtConfig(max_indexes=0)
    with pytest.raises(ConfigError):
        ColtConfig(drop_after_epochs=0)
