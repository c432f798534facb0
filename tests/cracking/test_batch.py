"""Unit tests for batched multi-pivot cracking (paper §3, "in one go")."""

import numpy as np
import pytest

from repro.cracking.engine import crack_multi
from repro.cracking.index import CrackerIndex
from repro.errors import CrackerError
from repro.simtime.clock import SimClock


def _values(n: int = 2_000, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 10_000, n).astype(
        np.int64
    )


def test_crack_multi_partitions_every_band():
    array = _values()
    pivots = [2_000.0, 5_000.0, 8_000.0]
    splits = crack_multi(array, 0, len(array), pivots)
    assert len(splits) == 3
    bounds = [0, *splits, len(array)]
    lows = [-np.inf, *pivots]
    highs = [*pivots, np.inf]
    for start, end, low, high in zip(bounds, bounds[1:], lows, highs):
        chunk = array[start:end]
        if len(chunk):
            assert chunk.min() >= low
            assert chunk.max() < high


def test_crack_multi_matches_sequential_split_positions():
    pivots = [1_000.0, 4_000.0, 9_000.0]
    batch = _values(seed=3)
    splits = crack_multi(batch, 0, len(batch), pivots)
    reference = np.sort(_values(seed=3))
    expected = [
        int(np.searchsorted(reference, p, side="left")) for p in pivots
    ]
    assert splits == expected


def test_crack_multi_preserves_multiset():
    array = _values(seed=5)
    expected = np.sort(array.copy())
    crack_multi(array, 100, 1_500, [3_000.0, 6_000.0])
    assert np.array_equal(np.sort(array), expected)


def test_crack_multi_validates_pivot_order():
    array = _values()
    with pytest.raises(CrackerError, match="strictly increasing"):
        crack_multi(array, 0, len(array), [5.0, 5.0])
    with pytest.raises(CrackerError, match="strictly increasing"):
        crack_multi(array, 0, len(array), [9.0, 5.0])


def test_crack_multi_empty_inputs():
    array = _values()
    assert crack_multi(array, 0, len(array), []) == []
    assert crack_multi(array, 10, 10, [5.0]) == [10]


def test_ensure_cuts_equivalent_to_sequential(small_column):
    pivots = [5e6, 2e7, 3.3e7, 6e7, 9e7]
    batch_index = CrackerIndex(small_column, clock=SimClock())
    batch_positions = batch_index.ensure_cuts(list(pivots))
    sequential_index = CrackerIndex(small_column, clock=SimClock())
    sequential_positions = [
        sequential_index.ensure_cut(p) for p in pivots
    ]
    assert batch_positions == sequential_positions
    batch_index.check_invariants()


def test_ensure_cuts_is_cheaper_than_sequential(small_column):
    pivots = [float(p) for p in range(5_000_000, 100_000_000, 5_000_000)]
    batch_clock = SimClock()
    CrackerIndex(small_column, clock=batch_clock).ensure_cuts(
        list(pivots)
    )
    seq_clock = SimClock()
    seq_index = CrackerIndex(small_column, clock=seq_clock)
    for pivot in pivots:
        seq_index.ensure_cut(pivot)
    assert batch_clock.now() < seq_clock.now() / 2


def test_ensure_cuts_handles_existing_and_duplicate_pivots(small_column):
    index = CrackerIndex(small_column, clock=SimClock())
    index.ensure_cut(5e7)
    positions = index.ensure_cuts([5e7, 2e7, 2e7, 8e7])
    assert positions[0] == index.piece_map.locate(5e7)[1]
    assert positions[1] == positions[2]
    index.check_invariants()


def test_tuner_perform_batch(small_column):
    from repro.holistic.tuner import AuxiliaryTuner

    index = CrackerIndex(small_column, clock=SimClock())
    tuner = AuxiliaryTuner(seed=2)
    effective = tuner.perform_batch(index, 50)
    assert effective > 40  # a few random collisions allowed
    assert index.crack_count == effective
    index.check_invariants()


def test_scheduler_batched_spreads_budget():
    from repro.holistic.policies import RoundRobinPolicy
    from repro.holistic.ranking import ColumnRanking
    from repro.holistic.scheduler import IdleScheduler
    from repro.holistic.tuner import AuxiliaryTuner
    from repro.online.monitor import WorkloadMonitor
    from repro.storage.catalog import ColumnRef
    from repro.storage.loader import generate_uniform_column

    clock = SimClock()
    ranking = ColumnRanking(10, WorkloadMonitor())
    for i in range(1, 4):
        column = generate_uniform_column(f"A{i}", rows=5_000, seed=i)
        ranking.register(
            ColumnRef("R", f"A{i}"),
            CrackerIndex(column, clock=clock),
        )
    scheduler = IdleScheduler(
        clock, ranking, RoundRobinPolicy(), AuxiliaryTuner(seed=4)
    )
    report = scheduler.run_actions_batched(30)
    assert report.actions_attempted == 30
    credited = [state.tuning_actions for state in ranking.states()]
    assert all(credited)
    assert sum(credited) == report.actions_effective > 25


def test_holistic_batch_tuning_flag(tiny_db):
    session = tiny_db.session("holistic", batch_tuning=True)
    record = session.idle(actions=60)
    assert record.actions_done > 50
    result = session.select("R", "A1", 1e7, 2e7)
    from tests.conftest import ground_truth_count

    assert result.count == ground_truth_count(
        tiny_db.column("R", "A1"), 1e7, 2e7
    )
