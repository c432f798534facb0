"""Unit tests for the epoch manager."""

import pytest

from repro.errors import ConfigError
from repro.online.epoch import EpochManager


def test_epoch_fires_every_n_queries():
    epochs = EpochManager(epoch_queries=3)
    fired = []
    epochs.on_epoch(fired.append)
    results = [epochs.observe_query() for _ in range(7)]
    assert results == [False, False, True, False, False, True, False]
    assert fired == [1, 2]
    assert epochs.epochs_completed == 2


def test_multiple_callbacks_all_fire():
    epochs = EpochManager(epoch_queries=1)
    hits = []
    epochs.on_epoch(lambda e: hits.append("a"))
    epochs.on_epoch(lambda e: hits.append("b"))
    epochs.observe_query()
    assert hits == ["a", "b"]


def test_invalid_epoch_length_rejected():
    with pytest.raises(ConfigError):
        EpochManager(epoch_queries=0)
