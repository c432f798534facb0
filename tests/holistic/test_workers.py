"""Tests for the parallel tuning worker pool.

Covers the serial fallback contract (``num_workers=0`` is bit-for-bit
the pre-worker kernel), window semantics, parallel time accounting,
worker attribution on the tape, and -- the important one -- a stress
test racing worker threads against foreground queries on the same
cracker index, checked against a serial oracle.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.bench.harness import piece_map_sha256
from repro.config import TINY
from repro.cracking.index import CrackerIndex
from repro.engine.query import RangeQuery
from repro.errors import ConcurrencyError, ConfigError
from repro.holistic.kernel import HolisticConfig, HolisticKernel
from repro.holistic.workers import TuningWorkerPool
from repro.simtime.clock import SimClock
from repro.storage.catalog import ColumnRef
from repro.storage.database import Database
from repro.storage.loader import build_paper_table

from tests.conftest import ground_truth_count


def _db(columns=3, rows=10_000, seed=42) -> Database:
    db = Database(clock=SimClock(TINY.cost_model()))
    db.add_table(build_paper_table(rows=rows, columns=columns, seed=seed))
    return db


def _query(low, high, column="A1"):
    return RangeQuery(ColumnRef("R", column), low, high)


# -- configuration -------------------------------------------------------


def test_config_validates_worker_knobs():
    with pytest.raises(ConfigError):
        HolisticConfig(num_workers=-1)
    with pytest.raises(ConfigError):
        HolisticConfig(latch_granularity=0)
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
        )


def test_serial_kernel_has_no_pool_and_no_worker_marks(tiny_db):
    kernel = HolisticKernel(tiny_db)
    assert kernel.worker_pool is None
    kernel.select(_query(1e7, 3e7))
    kernel.exploit_idle(actions=20)
    assert all(r.worker is None for r in kernel.tape.records())
    with pytest.raises(ConfigError):
        kernel.start_workers()
    with pytest.raises(ConfigError):
        kernel.stop_workers()


def test_serial_fallback_reproduces_identical_tape():
    """num_workers=0 must behave exactly like the pre-worker kernel.

    Two fresh kernels -- default config vs. explicit num_workers=0 --
    run the same workload and must produce identical tapes, clocks and
    results.
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
                [
                    (r.timestamp, r.origin, r.pivot, r.position, r.worker)
                    for r in kernel.tape.records()
                ],
            )
        )
    assert tapes[0] == tapes[1]


# -- windowed parallel tuning -------------------------------------------


def test_worker_window_refines_and_attributes_workers():
    db = _db()
    kernel = HolisticKernel(db, HolisticConfig(num_workers=2))
    outcome = kernel.exploit_idle(actions=40)
    assert outcome.actions_done > 0
    assert outcome.consumed_s > 0
    summary = kernel.tuning_summary()
    assert summary.workers == 2
    assert summary.actions_attempted == 40
    assert set(summary.per_worker) <= {0, 1}
    workers_on_tape = {
        r.worker
        for r in kernel.tape.records()
        if r.origin.value == "tuning"
    }
    assert workers_on_tape <= {0, 1}
    assert workers_on_tape  # at least one worker recorded actions
    for index in kernel.indexes.values():
        index.check_invariants()


def test_parallel_window_is_faster_than_serial_window():
    consumed = {}
    for workers in (1, 4):
        db = _db()
        kernel = HolisticKernel(db, HolisticConfig(num_workers=workers))
        outcome = kernel.exploit_idle(actions=64)
        consumed[workers] = outcome.consumed_s
        assert outcome.actions_done > 0
    assert consumed[4] < consumed[1]


def test_budget_window_with_workers_consumes_roughly_budget():
    db = _db()
    kernel = HolisticKernel(db, HolisticConfig(num_workers=2))
    outcome = kernel.exploit_idle(budget_s=0.05)
    # Budget is checked between batches; the window may overshoot by
    # at most one batch but must not stop early while unrefined.
    assert outcome.consumed_s >= 0.05 or "refined" in outcome.note
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
    assert not db.clock.in_parallel
    assert kernel.worker_pool is not None
    assert not kernel.worker_pool.is_running


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
    at most one latched multi-pivot pass per column and planning round,
    with at most two policy-lock round trips per batch."""
    kernel = HolisticKernel(
        _db(columns=8), HolisticConfig(num_workers=2, policy="ranked")
    )
    pool = kernel.worker_pool
    passes = []
    ensure_cuts = CrackerIndex.ensure_cuts
    monkeypatch.setattr(
        CrackerIndex,
        "ensure_cuts",
        lambda self, *args: passes.append(1) or ensure_cuts(self, *args),
    )

    class CountingLock:
        def __init__(self, lock):
            self.lock, self.acquired = lock, 0

        def __enter__(self):
            self.acquired += 1
            return self.lock.__enter__()

        def __exit__(self, *exc_info):
            return self.lock.__exit__(*exc_info)

    pool._policy_lock = CountingLock(pool._policy_lock)
    outcome = kernel.exploit_idle(actions=128)
    assert outcome.actions_done > 100
    assert kernel.tuning_summary().actions_attempted == 128
    assert 8 <= len(passes) <= 8 + pool.num_workers
    assert pool._policy_lock.acquired <= 2 * len(passes)


def test_ranked_window_is_planned_against_projected_piece_counts():
    """Each planned crack counts as one more piece of its column, so
    one window of the ranked policy spreads over equally deserving
    columns instead of spending itself on the first; the reservations
    are all returned when the window is done."""
    kernel = HolisticKernel(
        _db(columns=3), HolisticConfig(num_workers=2, policy="ranked")
    )
    kernel.exploit_idle(actions=60)
    summary = kernel.tuning_summary()
    assert len(summary.per_column) == 3
    assert max(summary.per_column.values()) <= 20
    assert [s.planned for s in kernel.ranking.states()] == [0, 0, 0]


def test_a_split_column_never_shares_a_piece_between_batches():
    """Fewer columns than workers: the column's pivots are cut into
    runs at piece boundaries, so sibling batches latch disjoint
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
        consumed = [
            kernel.exploit_idle(actions=48).consumed_s for _ in range(4)
        ]
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
                len(kernel.tape),
                summary.per_column,
                summary.per_worker,
                summary.stalls,
            )
        )
    assert runs[0] == runs[1]
    assert runs[0][6] == 0  # within a plan workers never contend


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


# -- queries racing workers ---------------------------------------------


def test_stress_queries_race_workers_against_serial_oracle():
    """K worker threads refine while the foreground runs selects.

    Every query result must match a numpy oracle on the base column,
    and after draining, the piece map and cracker column must satisfy
    every structural invariant.
    """
    rows = 20_000
    db = _db(columns=2, rows=rows)
    kernel = HolisticKernel(
        db,
        HolisticConfig(num_workers=4, cache_target_elements=64),
    )
    column = db.column("R", "A1")
    rng = np.random.default_rng(99)
    kernel.start_workers()
    try:
        kernel.submit_tuning(600)
        for _ in range(120):
            low = float(rng.uniform(0, 9.5e7))
            high = low + float(rng.uniform(1e5, 5e6))
            result = kernel.select(_query(low, high))
            assert result.count == ground_truth_count(column, low, high)
        kernel.drain_workers()
    finally:
        kernel.stop_workers()
    for index in kernel.indexes.values():
        index.check_invariants()
    # The workers really did run concurrently with the queries.
    tuning_workers = {
        r.worker
        for r in kernel.tape.records()
        if r.origin.value == "tuning" and r.worker is not None
    }
    assert len(tuning_workers) >= 2
    assert not db.clock.in_parallel


def test_stress_contended_single_column_counts_stalls():
    """All workers hammer one tiny column: latch conflicts must be
    detected (stalls counted), never corrupting the index."""
    db = _db(columns=1, rows=2_000)
    kernel = HolisticKernel(
        db,
        # Coarse granularity: every piece maps to few latch buckets,
        # so worker collisions are frequent.
        HolisticConfig(
            num_workers=4, latch_granularity=1_000, cache_target_elements=2
        ),
    )
    # The first window finds one piece (one batch); the second splits
    # the column's pivots over all four workers, whose pieces share
    # <= 2 latch buckets.
    kernel.exploit_idle(actions=200)
    kernel.exploit_idle(actions=200)
    index = kernel.index_for(ColumnRef("R", "A1"))
    index.check_invariants()
    summary = kernel.tuning_summary()
    assert summary.stalls == kernel.tape.stall_count()
    # With 4 workers on <= 2 buckets, contention is essentially
    # guaranteed; tolerate zero only if almost nothing overlapped.
    assert summary.actions_attempted == 400
    assert len(summary.per_worker) > 1


def test_explicit_lifecycle_folds_worker_time_into_clock():
    db = _db()
    kernel = HolisticKernel(db, HolisticConfig(num_workers=2))
    before = db.clock.now()
    kernel.start_workers()
    kernel.submit_tuning(40)
    kernel.drain_workers()
    kernel.stop_workers()
    assert db.clock.now() > before
    pool = kernel.worker_pool
    assert pool is not None
    busy = sum(stats.busy_s for stats in pool.worker_stats())
    assert busy > 0
    assert busy >= db.clock.now() - before  # lanes overlap


def test_worker_queries_race_from_two_foreground_threads():
    """Two foreground threads issue latched selects while workers
    crack: exercises multi-acquirer deadlock-freedom end to end."""
    db = _db(columns=1, rows=10_000)
    kernel = HolisticKernel(db, HolisticConfig(num_workers=2))
    column = db.column("R", "A1")
    errors: list[str] = []
    kernel.start_workers()

    def forager(seed: int) -> None:
        rng = np.random.default_rng(seed)
        for _ in range(40):
            low = float(rng.uniform(0, 9e7))
            high = low + 2e6
            count = kernel.select(_query(low, high)).count
            if count != ground_truth_count(column, low, high):
                errors.append(f"wrong count for [{low}, {high})")

    try:
        kernel.submit_tuning(200)
        threads = [
            threading.Thread(target=forager, args=(s,)) for s in (1, 2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        kernel.drain_workers()
    finally:
        kernel.stop_workers()
    assert errors == []
    kernel.index_for(ColumnRef("R", "A1")).check_invariants()


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

    def explode(worker_id, batch, access):
        raise RuntimeError("injected worker crash")

    pool._apply_batch = explode
    kernel.start_workers()
    kernel.submit_tuning(8)
    with pytest.raises(ConcurrencyError) as excinfo:
        pool.stop()
    error = excinfo.value
    assert error.account is not None
    assert error.account.elapsed_s >= 0.0
    assert [s.worker_id for s in error.worker_stats] == [0, 1]
    # The phase really was closed: no dangling parallel state, and a
    # retried stop() is an honest no-op.
    assert not db.clock.in_parallel
    assert pool.stop() is None


def test_drain_failure_reports_stats_without_account():
    db = _db()
    kernel = HolisticKernel(db, HolisticConfig(num_workers=2))
    pool = kernel.worker_pool

    def explode(worker_id, batch, access):
        raise RuntimeError("injected worker crash")

    pool._apply_batch = explode
    kernel.start_workers()
    try:
        kernel.submit_tuning(4)
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


# -- session-level background tuning ------------------------------------


def test_session_background_tuning_races_queries():
    db = _db(columns=2)
    session = db.session("holistic", num_workers=2)
    column = db.column("R", "A1")
    session.start_background_tuning(120)
    try:
        for i in range(20):
            low = 4e6 * i
            high = low + 2e6
            result = session.select("R", "A1", low, high)
            assert result.count == ground_truth_count(column, low, high)
    finally:
        session.finish_background_tuning()
    assert not db.clock.in_parallel
    kernel = session.strategy
    assert kernel.tuning_summary is not None
    tuning = [
        r
        for r in kernel.tape.records()
        if r.origin.value == "tuning" and r.worker is not None
    ]
    assert tuning  # workers really refined in the background
    for index in kernel.indexes.values():
        index.check_invariants()


def test_session_background_tuning_requires_workers():
    db = _db()
    scans = db.session("scan")
    with pytest.raises(ConfigError):
        scans.start_background_tuning(10)
    serial = db.session("holistic")  # num_workers=0
    with pytest.raises(ConfigError):
        serial.start_background_tuning(10)
    with pytest.raises(ConfigError):
        scans.finish_background_tuning()


def test_budget_window_terminates_on_minimal_clock():
    """A bare Clock (no parallel-lane accounting) still bounds the
    time-budget loop via plain now() deltas."""

    class MinimalClock:
        def __init__(self):
            self._now = 0.0

        def now(self):
            return self._now

        def charge(self, charge):
            self._now += 1e-4
            return 1e-4

        def sleep(self, seconds):
            self._now += seconds

    db = Database(clock=MinimalClock())
    db.add_table(build_paper_table(rows=50_000, columns=1, seed=3))
    kernel = HolisticKernel(
        db, HolisticConfig(num_workers=2, cache_target_elements=2)
    )
    outcome = kernel.exploit_idle(budget_s=0.001)
    # A tiny budget must not refine the whole 50k-row column.
    assert outcome.actions_done < 200
    assert outcome.consumed_s >= 0.001
