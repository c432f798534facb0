"""Index-level batched selects: physical pass + accounting replay."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cracking.engine import crack_in_three, crack_spans_batch
from repro.cracking.index import CrackerIndex
from repro.errors import CrackerError, QueryError
from repro.simtime.accounting import WindowAccountant
from repro.simtime.clock import SimClock
from repro.storage.dtypes import normalise_range
from repro.storage.loader import generate_uniform_column


def _pair(rows: int = 1500, seed: int = 0):
    column = generate_uniform_column(
        "A1", rows=rows, low=0, high=5000, seed=seed
    )
    sequential = CrackerIndex(column, clock=SimClock())
    batched = CrackerIndex(column, clock=SimClock())
    return sequential, batched


def _begin(index: CrackerIndex, bounds):
    """A window's replay context over normalised ``bounds``, bound to a
    fresh window accountant on the index's clock; returns ``(context,
    accountant)``."""
    context = index.begin_select_batch(bounds)
    accountant = WindowAccountant(index.clock)
    context.bind(accountant)
    return context, accountant


def _assert_identical(sequential: CrackerIndex, batched: CrackerIndex):
    assert repr(sequential.clock.now()) == repr(batched.clock.now())
    assert sequential.clock.total_charge == batched.clock.total_charge
    assert sequential.piece_map.cuts() == batched.piece_map.cuts()
    assert sequential.piece_map.pivots() == batched.piece_map.pivots()
    assert sequential.tape.export_state() == batched.tape.export_state()
    sequential.check_invariants()
    batched.check_invariants()


def _ranges(rng, count: int) -> list[tuple[float, float]]:
    lows = rng.uniform(-100, 5100, size=count)
    widths = rng.uniform(0, 700, size=count)
    ranges = [
        (float(low), float(low + (0 if rng.random() < 0.15 else width)))
        for low, width in zip(lows, widths)
    ]
    if count > 2:
        ranges[1] = ranges[0]  # duplicated query
    return ranges


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000), rows=st.integers(0, 1500))
def test_select_batch_replay_equals_sequential_selects(seed, rows):
    rng = np.random.default_rng(seed)
    sequential, batched = _pair(rows, seed)
    for value in rng.uniform(0, 5000, size=int(rng.integers(0, 4))):
        sequential.ensure_cut(float(value))
        batched.ensure_cut(float(value))
    if sequential.piece_count > 1 and rng.random() < 0.5:
        piece = int(rng.integers(0, sequential.piece_count))
        sequential.sort_piece_at(piece)
        batched.sort_piece_at(piece)
    from repro.simtime.charge import CostCharge

    for _ in range(3):
        ranges = _ranges(rng, int(rng.integers(1, 9)))
        # replay_query owns the session's per-query overhead charge;
        # mirror the interleaving exactly on the sequential side.
        expected, expected_at = [], []
        for low, high in ranges:
            sequential.clock.charge(CostCharge(queries=1))
            expected.append(sequential.select_range(low, high))
            expected_at.append(repr(sequential.clock.now()))
        keys = [
            normalise_range(batched.piece_map.dtype, low, high)
            for low, high in ranges
        ]
        context, accountant = _begin(
            batched, [pair for pair in keys if pair is not None]
        )
        got, got_at = [], []
        for pair in keys:
            if pair is None:
                # An empty range: the per-query overhead alone.
                accountant.charge_query()
                got.append(context.empty())
            else:
                got.append(context.replay_query(*pair))
            got_at.append(repr(accountant.now))
        accountant.finish()
        assert got_at == expected_at
        context.check_consistent()
        for view_a, view_b in zip(expected, got):
            assert (view_a.start, view_a.end) == (view_b.start, view_b.end)
        _assert_identical(sequential, batched)


def test_begin_select_batch_rejects_inverted_ranges():
    index, _ = _pair()
    with pytest.raises(QueryError):
        index.begin_select_batch([(10, 5)])


def _replayed(index: CrackerIndex, bounds):
    context, accountant = _begin(index, bounds)
    for pair in bounds:
        context.replay_query(*pair)
    accountant.finish()
    return context


@pytest.fixture
def pass_spy(monkeypatch):
    """Records the values of every ``_crack_pass`` and counts every
    ``PieceMap.locate_many``."""
    from repro.cracking.piecemap import PieceMap

    calls = {"passes": [], "locate_many": 0}
    crack_pass = CrackerIndex._crack_pass
    locate_many = PieceMap.locate_many

    def spy_pass(self, values, *args):
        calls["passes"].append(sorted(values.tolist()))
        return crack_pass(self, values, *args)

    def spy_locate(self, values):
        calls["locate_many"] += 1
        return locate_many(self, values)

    monkeypatch.setattr(CrackerIndex, "_crack_pass", spy_pass)
    monkeypatch.setattr(PieceMap, "locate_many", spy_locate)
    return calls


@pytest.mark.parametrize("cached", [True, False])
def test_warm_window_skips_the_physical_pass(pass_spy, cached):
    """A window whose bounds are all pivots -- on the cached shadow map
    or on a fresh snapshot of the piece map -- never enters the pass."""
    from repro.simtime.charge import CostCharge

    sequential, batched = _pair(rows=1200, seed=4)

    def run_sequential(window):
        for low, high in window:
            sequential.clock.charge(CostCharge(queries=1))
            sequential.select_keys(low, high)

    cold = [(100, 900), (900, 2000), (100, 900)]
    _replayed(batched, cold)
    run_sequential(cold)
    assert len(pass_spy["passes"]) == 1
    if not cached:
        for index in (sequential, batched):
            index.ensure_cut(3000)  # invalidates the cached shadow
    pass_spy["passes"].clear()
    pass_spy["locate_many"] = 0
    warm = [(900, 2000), (100, 2000), (100, 900)]
    context = _replayed(batched, warm)
    assert pass_spy == {"passes": [], "locate_many": 0}
    context.check_consistent()
    run_sequential(warm)
    _assert_identical(sequential, batched)


def test_partly_warm_window_passes_only_its_fresh_bounds(pass_spy):
    _, batched = _pair(rows=1200, seed=6)
    _replayed(batched, [(100, 900)])
    pass_spy["passes"].clear()
    # 100 and 900 are pivots and a top is never cut; repeats of a
    # fresh bound are the pass's to dedupe.
    top = batched._largest + 1
    context = _replayed(
        batched, [(100, 1500), (900, 1500), (2500, top), (1500, 2000)]
    )
    (values,) = pass_spy["passes"]
    assert set(values) == {1500, 2000, 2500}
    context.check_consistent()


def test_inverted_range_leaves_the_replay_cache_untouched():
    _, batched = _pair(rows=800, seed=8)
    _replayed(batched, [(100, 200)])
    cache, version = batched._replay_cache, batched.piece_map.version
    with pytest.raises(QueryError):
        batched.begin_select_batch([(300, 400), (10, 5)])
    assert batched._replay_cache is cache
    assert batched.piece_map.version == version
    assert batched.piece_map.pivots() == [100, 200]


def test_replay_cache_reuse_and_invalidation():
    """Consecutive fully-replayed windows reuse the shadow map -- with
    a fresh bound and without one; an incomplete previous replay and a
    foreground crack between windows each force a new snapshot."""
    _, batched = _pair(rows=1200, seed=3)
    ranges = [(100, 900), (2000, 2600)]
    context, _ = _begin(batched, ranges)
    for low, high in ranges:
        context.replay_query(low, high)
    assert context.is_complete
    cached_sim = context.sim
    follow_up, _ = _begin(batched, [(3000, 3500)])  # a fresh bound
    assert follow_up.sim is cached_sim  # reused, no snapshot
    follow_up.replay_query(3000, 3500)
    converged = [(100, 3000), (900, 3500)]
    assert _replayed(batched, converged).sim is cached_sim
    # A context that replays none stays incomplete.
    unreplayed = batched.begin_select_batch(converged)
    assert unreplayed.sim is cached_sim
    again = _replayed(batched, converged)
    assert again.sim is not cached_sim
    again.check_consistent()
    # A foreground crack invalidates the cached shadow map.
    batched.ensure_cut(4321)
    third, _ = _begin(batched, [(4500, 4600)])
    assert third.sim is not again.sim
    third.replay_query(4500, 4600)
    third.check_consistent()
    batched.ensure_cut(4400)
    fourth = _replayed(batched, [(4500, 4600)])  # converged, new map
    assert fourth.sim is not third.sim
    fourth.check_consistent()


def test_converged_window_answers_views_of_a_widened_array():
    _, batched = _pair(rows=1000, seed=13)
    _replayed(batched, [(100, 700)])
    assert batched.values.dtype == np.int32
    batched.ensure_values_fit(np.array([2**40]))
    assert batched.values.dtype == np.int64
    context, accountant = _begin(batched, [(100, 700)])
    view = context.replay_query(100, 700)
    accountant.finish()
    assert view.values().dtype == np.int64
    assert np.shares_memory(view.values(), batched.values)
    assert sorted(view.values().tolist()) == sorted(
        v for v in batched.column.values.tolist() if 100 <= v < 700
    )


def test_incomplete_replay_is_not_reused():
    _, batched = _pair(rows=800, seed=5)
    context, _ = _begin(batched, [(100, 200), (300, 400)])
    context.replay_query(100, 200)  # second entry never replayed
    assert not context.is_complete
    fresh, _ = _begin(batched, [(500, 600)])
    assert fresh.sim is not context.sim


def test_warm_view_cache_shares_objects_and_survives_windows():
    _, batched = _pair(rows=1000, seed=9)
    context, _ = _begin(batched, [(100, 700)] * 3)
    context.replay_query(100, 700)  # cracks: fresh bounds
    second = context.replay_query(100, 700)  # warm: both pivots
    third = context.replay_query(100, 700)
    assert third is second  # identical warm slice -> one view object
    again, _ = _begin(batched, [(100, 700)])
    assert again.replay_query(100, 700) is second


def test_consistency_check_covers_the_shadow_pivot_set():
    """A converged read is decided by the shadow's pivot set, so the
    replay's consistency check holds it to the pivot list too."""
    _, batched = _pair(rows=1000, seed=9)
    context, _ = _begin(batched, [(100, 700), (100, 700)])
    context.replay_query(100, 700)
    context.replay_query(100, 700)
    context.check_consistent()
    context.sim.pivot_set.add(400)
    with pytest.raises(CrackerError, match="pivot set"):
        context.check_consistent()


def test_crack_spans_batch_matches_crack_in_three():
    rng = np.random.default_rng(11)
    base = rng.integers(0, 10_000, size=6000).astype(np.int64)
    reference = base.copy()
    subject = base.copy()
    bounds = [(0, 1500), (1500, 1600), (1600, 1601), (1601, 1601), (1601, 6000)]
    tasks = []
    expected = []
    for start, end in bounds:
        view = reference[start:end]
        low = float(rng.uniform(0, 10_000))
        high = low if rng.random() < 0.4 else low + float(rng.uniform(0, 3000))
        tasks.append((start, end, low, high))
        pos_low, pos_high, _charge = crack_in_three(
            reference, start, end, low, high
        )
        expected.append((pos_low, pos_high))
    got = crack_spans_batch(subject, tasks)
    assert got == expected
    for start, end in bounds:
        assert sorted(subject[start:end]) == sorted(reference[start:end])


def test_crack_spans_batch_validates_overlap_and_inversion():
    array = np.arange(100, dtype=np.int64)
    with pytest.raises(CrackerError):
        crack_spans_batch(array, [(0, 60, 5.0, 9.0), (50, 90, 3.0, 4.0)])
    with pytest.raises(CrackerError):
        crack_spans_batch(array, [(0, 60, 9.0, 5.0)])
