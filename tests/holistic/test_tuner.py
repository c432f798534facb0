"""Unit tests for auxiliary tuning actions."""

import pytest

from repro.cracking.index import CrackerIndex
from repro.errors import ConfigError
from repro.holistic.tuner import AuxiliaryTuner
from repro.simtime.clock import SimClock


@pytest.fixture
def index(small_column) -> CrackerIndex:
    return CrackerIndex(small_column, clock=SimClock())


def test_random_crack_action(index):
    tuner = AuxiliaryTuner(seed=1)
    assert tuner.perform(index)
    assert index.crack_count == 1
    assert tuner.actions_performed == 1


def test_min_piece_size_blocks_tiny_cracks(small_column):
    index = CrackerIndex(small_column, clock=SimClock())
    tuner = AuxiliaryTuner(
        seed=1, min_piece_size=small_column.row_count + 1
    )
    assert not tuner.perform(index)
    assert tuner.actions_degenerate == 1


def test_crack_in_hot_range_confines_pivot(index):
    tuner = AuxiliaryTuner(seed=1)
    assert tuner.crack_in_hot_range(index, 4e7, 5e7)
    pivot = index.piece_map.pivots()[0]
    assert 4e7 <= pivot < 5e7


def test_crack_in_hot_range_rejects_empty_range(index):
    tuner = AuxiliaryTuner(seed=1)
    assert not tuner.crack_in_hot_range(index, 5e7, 5e7)


def test_invalid_min_piece_size():
    with pytest.raises(ConfigError):
        AuxiliaryTuner(min_piece_size=0)


def test_actions_are_seed_deterministic(small_column):
    def run(seed):
        index = CrackerIndex(small_column, clock=SimClock())
        tuner = AuxiliaryTuner(seed=seed)
        for _ in range(10):
            tuner.perform(index)
        return index.piece_map.pivots()

    assert run(7) == run(7)
    assert run(7) != run(8)
