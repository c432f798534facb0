"""Unit tests for the COLT-style online tuner."""

import pytest

from repro.offline.builder import IndexBuilder
from repro.offline.whatif import WhatIfOptimizer
from repro.online import colt
from repro.online.colt import DROP_AFTER_EPOCHS, EPOCH_QUERIES, ColtTuner
from repro.online.monitor import WorkloadMonitor
from repro.storage.catalog import ColumnRef


@pytest.fixture
def tuner(tiny_db) -> ColtTuner:
    return ColtTuner(
        WorkloadMonitor(),
        WhatIfOptimizer(tiny_db.catalog, tiny_db.cost_model),
        IndexBuilder(tiny_db.catalog, tiny_db.clock),
    )


def _hammer(tuner, ref, n):
    for _ in range(n):
        tuner.monitor.record(ref)


def test_epoch_fires_every_n_queries(tuner, a1, monkeypatch):
    """Every EPOCH_QUERIES-th observed query runs one reevaluation,
    numbered by the epoch it closes."""
    epochs = []
    reevaluate = tuner.reevaluate

    def counted(epoch):
        epochs.append(epoch)
        return reevaluate(epoch)

    monkeypatch.setattr(tuner, "reevaluate", counted)
    for _ in range(EPOCH_QUERIES - 1):
        tuner.monitor.record(a1)
        tuner.observe_query()
    assert epochs == []
    tuner.monitor.record(a1)
    tuner.observe_query()
    assert epochs == [1]
    assert tuner.decisions == 1
    # The closing query's reevaluation built the hot column's index.
    assert tuner.index_for(a1) is not None


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
    assert a1 not in tuner.reevaluate(epoch=DROP_AFTER_EPOCHS).dropped
    decision = tuner.reevaluate(epoch=1 + DROP_AFTER_EPOCHS)
    assert a1 in decision.dropped
    assert tuner.index_for(a1) is None


def test_used_index_survives(tuner, a1):
    _hammer(tuner, a1, 50)
    tuner.reevaluate(epoch=1)
    for epoch in range(2, 2 * DROP_AFTER_EPOCHS):
        tuner.note_index_use(a1)
        decision = tuner.reevaluate(epoch=epoch)
        assert a1 not in decision.dropped


def test_max_indexes_cap(tuner, monkeypatch):
    monkeypatch.setattr(colt, "MAX_INDEXES", 1)
    a1, a2 = ColumnRef("R", "A1"), ColumnRef("R", "A2")
    _hammer(tuner, a1, 50)
    _hammer(tuner, a2, 40)
    tuner.reevaluate(epoch=1)
    _hammer(tuner, a2, 40)
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
