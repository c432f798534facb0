"""Tests for the parallel tuning worker pool.

Covers the serial fallback contract (``num_workers=0`` is bit-for-bit
the pre-worker kernel), window semantics, parallel time accounting,
per-worker statistics, workers sharing one column, and the pool's
failure reporting.  The pool runs only inside
an idle window, so no test races it against queries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.harness import piece_map_sha256
from repro.config import TINY
from repro.cracking.index import CrackerIndex
from repro.cracking.piece import CrackOrigin
from repro.engine.query import RangeQuery
from repro.errors import ConcurrencyError, ConfigError
from repro.holistic.kernel import HolisticConfig, HolisticKernel
from repro.holistic.workers import TuningWorkerPool
from repro.simtime.clock import SimClock, WallClock
from repro.storage.catalog import ColumnRef
from repro.storage.database import Database
from repro.storage.loader import build_paper_table


def _assert_no_phase_open(db: Database) -> None:
    """The clock has no parallel phase open: ending one is refused."""
    with pytest.raises(ConfigError):
        db.clock.end_parallel()


def _db(columns=3, rows=10_000, seed=42) -> Database:
    db = Database(clock=SimClock(TINY.cost_model()))
    db.add_table(build_paper_table(rows=rows, columns=columns, seed=seed))
    return db


def _query(low, high, column="A1"):
    return RangeQuery(ColumnRef("R", column), low, high)


def _idle(kernel, **window):
    """``exploit_idle`` and the clock time its window consumed."""
    before = kernel.clock.now()
    outcome = kernel.exploit_idle(**window)
    return outcome, kernel.clock.now() - before


# -- configuration -------------------------------------------------------


def test_config_validates_worker_knobs():
    with pytest.raises(ConfigError):
        HolisticConfig(num_workers=-1)
    assert HolisticConfig().num_workers == 0


def test_pool_requires_at_least_one_worker(tiny_db):
    kernel = HolisticKernel(tiny_db)
    with pytest.raises(ConfigError):
        TuningWorkerPool(
            clock=tiny_db.clock,
            tape=kernel.tape,
            ranking=kernel.ranking,
            policy=kernel.policy,
            num_workers=0,
            tuner=kernel.tuner,
        )


def test_serial_kernel_has_no_pool_and_no_worker_marks(tiny_db):
    kernel = HolisticKernel(tiny_db)
    assert kernel.worker_pool is None
    kernel.select(_query(1e7, 3e7))
    kernel.exploit_idle(actions=20)
    assert kernel.tape.count(CrackOrigin.TUNING) > 0
    summary = kernel.tuning_summary()
    assert summary.busy_s == 0.0


def test_serial_fallback_reproduces_identical_tape():
    """num_workers=0 must behave exactly like the pre-worker kernel.

    Two fresh kernels -- default config vs. explicit num_workers=0 --
    run the same workload and must produce identical tape counts,
    piece maps, clocks and results.
    """
    tapes = []
    for config in (HolisticConfig(), HolisticConfig(num_workers=0)):
        db = _db()
        kernel = HolisticKernel(db, config)
        counts = []
        counts.append(kernel.select(_query(1e7, 3e7)).count)
        kernel.exploit_idle(actions=25)
        counts.append(kernel.select(_query(2e7, 6e7, "A2")).count)
        kernel.exploit_idle(budget_s=0.02)
        tapes.append(
            (
                counts,
                db.clock.now(),
                kernel.tape.export_state(),
                {
                    str(ref): (index.piece_map.pivots(), index.piece_map.cuts())
                    for ref, index in kernel.indexes.items()
                },
            )
        )
    assert tapes[0] == tapes[1]


# -- windowed parallel tuning -------------------------------------------


def test_worker_window_refines_and_attributes_workers():
    db = _db()
    kernel = HolisticKernel(db, HolisticConfig(num_workers=2))
    outcome, consumed = _idle(kernel, actions=40)
    assert outcome.actions_done > 0
    assert consumed > 0
    summary = kernel.tuning_summary()
    stats = kernel.worker_pool.worker_stats()
    assert [s.worker_id for s in stats] == [0, 1]
    assert summary.actions_attempted == 40
    effective = [s.actions_effective for s in stats]
    assert any(effective)  # at least one worker refined
    # Every tuning crack on the tape is some worker's effective action.
    assert sum(effective) == kernel.tape.count(CrackOrigin.TUNING)
    assert sum(effective) == summary.actions_effective
    for index in kernel.indexes.values():
        index.check_invariants()


def test_parallel_window_is_faster_than_serial_window():
    consumed = {}
    for workers in (1, 4):
        db = _db()
        kernel = HolisticKernel(db, HolisticConfig(num_workers=workers))
        outcome, consumed[workers] = _idle(kernel, actions=64)
        assert outcome.actions_done > 0
    assert consumed[4] < consumed[1]


def test_budget_window_with_workers_consumes_roughly_budget():
    db = _db()
    kernel = HolisticKernel(db, HolisticConfig(num_workers=2))
    outcome, consumed = _idle(kernel, budget_s=0.05)
    # Budget is checked between batches; the window may overshoot by
    # at most one batch but must not stop early while unrefined.
    assert consumed >= 0.05 or "refined" in outcome.note
    assert outcome.actions_done > 0


def test_window_reports_all_refined_when_candidates_done():
    db = _db(columns=1, rows=64)
    kernel = HolisticKernel(
        db,
        HolisticConfig(num_workers=2, cache_target_elements=32),
    )
    kernel.exploit_idle(actions=200)
    outcome = kernel.exploit_idle(actions=10)
    assert "all candidates refined" in outcome.note


def test_clock_leaves_parallel_phase_after_window():
    db = _db()
    kernel = HolisticKernel(db, HolisticConfig(num_workers=3))
    kernel.exploit_idle(actions=30)
    _assert_no_phase_open(db)
    assert kernel.worker_pool is not None
    assert kernel.worker_pool.stop() is None  # nothing left running


def test_session_integration_via_strategy_options():
    db = _db()
    session = db.session("holistic", num_workers=2)
    session.select("R", "A1", 0, 1_000_000)
    record = session.idle(actions=32)
    assert record.actions_done > 0
    assert "2 workers" in record.note


# -- window plans --------------------------------------------------------


def _converged_kernel(workers: int) -> HolisticKernel:
    kernel = HolisticKernel(
        _db(columns=8, rows=2_000),
        HolisticConfig(
            num_workers=workers, policy="ranked", cache_target_elements=64
        ),
    )
    while kernel.exploit_idle(actions=256).actions_done:
        pass
    return kernel


def test_exhausted_window_asks_the_policy_once_not_per_action(monkeypatch):
    """Regression: every token of a window used to be processed even
    after the ranking was found exhausted (5.5 ms for actions=128 on a
    converged kernel, against 49 us serially).  A plan finds that out
    with one policy choice, whatever the window's size, and spawns no
    thread for it."""
    kernel = _converged_kernel(workers=2)
    calls = []
    choose = kernel.policy.choose
    monkeypatch.setattr(
        kernel.policy,
        "choose",
        lambda ranking: calls.append(1) or choose(ranking),
    )
    per_window = []
    for actions in (1, 16, 128):
        calls.clear()
        outcome = kernel.exploit_idle(actions=actions)
        assert outcome.actions_done == 0
        assert "all candidates refined" in outcome.note
        per_window.append(len(calls))
    assert per_window == [1, 1, 1]
    assert kernel.worker_pool._threads == {}


def test_window_cost_is_per_batch_not_per_action(monkeypatch):
    """A structural cost guard: a 128-action window over 8 columns is
    at most one multi-pivot pass per column and planning round,
    with at most two reservation releases per batch."""
    kernel = HolisticKernel(
        _db(columns=8), HolisticConfig(num_workers=2, policy="ranked")
    )
    pool = kernel.worker_pool
    passes = []
    crack_pass = CrackerIndex._crack_pass
    monkeypatch.setattr(
        CrackerIndex,
        "_crack_pass",
        lambda self, *args: passes.append(1) or crack_pass(self, *args),
    )
    releases = []
    release = pool._release
    pool._release = lambda *args: releases.append(1) or release(*args)
    outcome = kernel.exploit_idle(actions=128)
    assert outcome.actions_done > 100
    assert kernel.tuning_summary().actions_attempted == 128
    assert 8 <= len(passes) <= 8 + pool.num_workers
    assert len(releases) <= 2 * len(passes)


def test_ranked_window_is_planned_against_projected_piece_counts():
    """Each planned crack counts as one more piece of its column, so
    one window of the ranked policy spreads over equally deserving
    columns instead of spending itself on the first; the reservations
    are all returned when the window is done."""
    kernel = HolisticKernel(
        _db(columns=3), HolisticConfig(num_workers=2, policy="ranked")
    )
    kernel.exploit_idle(actions=60)
    credited = [s.tuning_actions for s in kernel.ranking.states()]
    assert all(credited)
    assert max(credited) <= 20
    assert [s.planned for s in kernel.ranking.states()] == [0, 0, 0]


def test_a_split_column_never_shares_a_piece_between_batches():
    """Fewer columns than workers: the column's pivots are cut into
    runs at piece boundaries, so sibling batches cut disjoint
    pieces."""
    kernel = HolisticKernel(
        _db(columns=1),
        HolisticConfig(num_workers=4, cache_target_elements=16),
    )
    kernel.exploit_idle(actions=24)
    pool = kernel.worker_pool
    (state,) = kernel.ranking.states()
    pieces = state.index.piece_map
    pivots = sorted(
        np.random.default_rng(5).uniform(1, 1e8, size=40).tolist()
    )
    batches = pool._batches_for(state, len(pivots), pivots, runs=4)
    assert 2 <= len(batches) <= 4
    assert [p for batch in batches for p in batch.pivots] == pivots
    assert sum(batch.count for batch in batches) == len(pivots)
    targets = [
        {pieces.locate(pivot)[1] for pivot in batch.pivots}
        for batch in batches
    ]
    for i, mine in enumerate(targets):
        for theirs in targets[i + 1 :]:
            assert not mine & theirs
    # Balanced by rows touched: no run carries most of the column.
    assert max(b.weight for b in batches) < 0.6 * sum(
        b.weight for b in batches
    )


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_same_seed_worker_windows_are_reproducible(workers):
    """Plan-time pivots from per-column streams and a static deal make
    a run_window-only run a function of the seed: two fresh kernels
    agree on the cut set, the virtual time, the tape and the report,
    whatever the thread timing."""
    runs = []
    for _ in range(2):
        db = _db(columns=2)
        kernel = HolisticKernel(
            db,
            HolisticConfig(
                num_workers=workers, cache_target_elements=64, seed=11
            ),
        )
        consumed = [_idle(kernel, actions=48)[1] for _ in range(4)]
        sha = piece_map_sha256(
            (str(ref), index.piece_map.cuts(), index.piece_map.pivots())
            for ref, index in sorted(
                kernel.indexes.items(), key=lambda kv: str(kv[0])
            )
        )
        summary = kernel.tuning_summary()
        runs.append(
            (
                sha,
                consumed,
                db.clock.now(),
                kernel.tape.export_state(),
                [s.tuning_actions for s in kernel.ranking.states()],
                kernel.worker_pool.worker_stats(),
                (summary.actions_attempted, summary.actions_effective),
            )
        )
    assert runs[0] == runs[1]


def test_cut_set_does_not_depend_on_the_worker_count():
    """A column's pivot stream is keyed by (seed, column), not by the
    worker that applies it: action-count windows cut the same places
    on 1, 2 or 4 workers."""
    cut_sets = []
    for workers in (1, 2, 4):
        kernel = HolisticKernel(
            _db(columns=2),
            HolisticConfig(
                num_workers=workers, cache_target_elements=64, seed=11
            ),
        )
        for _ in range(3):
            kernel.exploit_idle(actions=48)
        cut_sets.append(
            {
                str(ref): index.piece_map.pivots()
                for ref, index in kernel.indexes.items()
            }
        )
    assert cut_sets[0] == cut_sets[1] == cut_sets[2]


# -- workers contending with each other ---------------------------------


def test_stress_contended_single_column_stays_exact():
    """All workers hammer one tiny column: their batches take turns
    under the index's lock and never corrupt it."""
    db = _db(columns=1, rows=2_000)
    kernel = HolisticKernel(
        db, HolisticConfig(num_workers=4, cache_target_elements=2)
    )
    # The first window finds one piece (one batch); the second splits
    # the column's pivots over all four workers.
    kernel.exploit_idle(actions=200)
    kernel.exploit_idle(actions=200)
    index = kernel.index_for(ColumnRef("R", "A1"))
    index.check_invariants()
    summary = kernel.tuning_summary()
    assert summary.actions_attempted == 400
    assert summary.actions_effective == kernel.tape.count(CrackOrigin.TUNING)
    stats = kernel.worker_pool.worker_stats()
    assert sum(1 for s in stats if s.actions_effective) > 1


def test_explicit_lifecycle_folds_worker_time_into_clock():
    """A window's start, submit, drain and stop fold the workers'
    lanes into the clock: it advances by the longest lane only."""
    db = _db()
    kernel = HolisticKernel(db, HolisticConfig(num_workers=2))
    before = db.clock.now()
    kernel.exploit_idle(actions=40)
    assert db.clock.now() > before
    pool = kernel.worker_pool
    assert pool is not None
    busy = sum(stats.busy_s for stats in pool.worker_stats())
    assert busy > 0
    assert busy >= db.clock.now() - before  # lanes overlap


def test_stop_preserves_settled_account_when_worker_died():
    """Regression: a worker death used to lose the ParallelAccount.

    ``stop()`` settles the parallel phase with ``end_parallel()`` and
    only then re-raises the worker failure -- the phase cannot be
    settled twice, so the account (and the busy_s statistics derived
    from its lanes) were unrecoverable and a retried ``stop()``
    silently returned ``None``.  The settled account and the updated
    worker statistics must ride on the raised ``ConcurrencyError``.
    """
    db = _db()
    kernel = HolisticKernel(db, HolisticConfig(num_workers=2))
    pool = kernel.worker_pool

    def explode(batch):
        raise RuntimeError("injected worker crash")

    pool._apply_batch = explode
    with pytest.raises(ConcurrencyError) as excinfo:
        kernel.exploit_idle(actions=8)  # the window's stop() raises
    error = excinfo.value
    assert error.account is not None
    assert error.account.elapsed_s >= 0.0
    assert [s.worker_id for s in error.worker_stats] == [0, 1]
    # The phase really was closed: no dangling parallel state, and a
    # retried stop() is an honest no-op.
    _assert_no_phase_open(db)
    assert pool.stop() is None


def test_drain_failure_reports_stats_without_account():
    """The pool's primitives as a window calls them: a drain that
    finds a fatal failure raises before the phase is settled."""
    db = _db()
    kernel = HolisticKernel(db, HolisticConfig(num_workers=2))
    pool = kernel.worker_pool
    for column in ("A1", "A2", "A3"):
        kernel.index_for(ColumnRef("R", column))

    def explode(batch):
        raise RuntimeError("injected worker crash")

    pool._apply_batch = explode
    pool.start()
    try:
        assert pool.submit(4) == 4
        with pytest.raises(ConcurrencyError) as excinfo:
            pool.drain()
        # drain() has not settled the phase yet: no account to attach,
        # but the statistics snapshot is still there.
        assert excinfo.value.account is None
        assert len(excinfo.value.worker_stats) == 2
    finally:
        # The failure is sticky: stop() keeps raising until it is
        # explicitly acknowledged (see test_failure_is_sticky_*).
        with pytest.raises(ConcurrencyError):
            pool.stop()
        assert pool.clear_failure() is not None


def test_budget_window_terminates_on_minimal_clock():
    """A budget window bounds its loop on a wall clock too, where
    parallel elapsed time is real time rather than the max of lanes."""
    db = Database(clock=WallClock())
    db.add_table(build_paper_table(rows=50_000, columns=1, seed=3))
    kernel = HolisticKernel(
        db, HolisticConfig(num_workers=2, cache_target_elements=2)
    )
    outcome, consumed = _idle(kernel, budget_s=0.001)
    # A tiny budget must not refine the whole 50k-row column.
    assert outcome.actions_done < 200
    assert consumed >= 0.001
