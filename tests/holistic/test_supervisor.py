"""Tests for the supervised crash handling of the tuning worker pool.

The supervised unit is the *batch* -- one column's share of a window
plan.  Covers the self-healing ladder of ISSUE 8 at that grain: a
worker that crashes mid-batch is restarted with backoff, handed the
same batch (same pivots) again and the fault is credited as recovered;
a column whose batches repeatedly kill workers is quarantined -- only
its batches are dropped, their attempts re-planned on live columns --
while the rest of the pool keeps refining; quarantining *every*
candidate -- or running a worker slot out of restarts -- is a fatal,
sticky failure that every ``drain()``/``stop()`` keeps reporting until
it is acknowledged; and the pool distinguishes "all live work is done"
(clean exhaustion) from "the policy refuses to rotate off a quarantined
column" (stuck).
"""

from __future__ import annotations

import pytest

from repro import faults
from repro.config import TINY
from repro.cracking.index import CrackerIndex
from repro.engine.query import RangeQuery
from repro.errors import ConcurrencyError
from repro.faults import FaultPlan, engaged
from repro.holistic.kernel import HolisticConfig, HolisticKernel
from repro.holistic.workers import SupervisorPolicy
from repro.simtime.clock import SimClock
from repro.storage.catalog import ColumnRef
from repro.storage.database import Database
from repro.storage.loader import build_paper_table
from repro.util.retry import BackoffPolicy

from tests.conftest import ground_truth_count

#: Zero-delay restarts keep the supervised tests fast.
FAST = SupervisorPolicy(
    backoff=BackoffPolicy(base_s=0.0, factor=2.0, cap_s=0.0, max_attempts=64)
)


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    faults.uninstall()
    yield
    faults.uninstall()


def _db(columns=3, rows=10_000, seed=42) -> Database:
    db = Database(clock=SimClock(TINY.cost_model()))
    db.add_table(build_paper_table(rows=rows, columns=columns, seed=seed))
    return db


def _query(low, high, column="A1"):
    return RangeQuery(ColumnRef("R", column), low, high)


def _kernel(db, **overrides) -> HolisticKernel:
    options = {"num_workers": 2, "cache_target_elements": 64}
    options.update(overrides)
    return HolisticKernel(db, HolisticConfig(**options))


# -- restart ------------------------------------------------------------


def _record_batches(pool) -> list:
    """Log every batch handed to ``_apply_batch`` (before its fault
    point), in application order."""
    applied = []
    apply_batch = pool._apply_batch

    def recording(worker_id, batch, access):
        applied.append(batch)
        return apply_batch(worker_id, batch, access)

    pool._apply_batch = recording
    return applied


def test_injected_crash_restarts_worker_and_recovers():
    db = _db()
    kernel = _kernel(db)
    pool = kernel.worker_pool
    pool.supervisor = FAST
    applied = _record_batches(pool)
    column = db.column("R", "A1")
    plan = FaultPlan()
    plan.arm("workers.perform", at=0)
    with engaged(plan):
        kernel.select(_query(1e7, 3e7))
        kernel.start_workers()
        try:
            kernel.submit_tuning(16)
            kernel.drain_workers()  # a supervised crash must not surface
        finally:
            kernel.stop_workers()
    assert plan.injected == 1
    assert plan.unrecovered() == []
    assert plan.summary()["recovered"] == 1
    summary = pool.supervisor_summary()
    assert summary["restarts"] == 1
    assert summary["dead_letter"] == []
    assert any("restart #1" in line for line in summary["log"])
    # The crashed batch -- the very object, so the very pivots -- was
    # applied again by the replacement worker; every other batch once.
    ids = [id(batch) for batch in applied]
    (retried,) = {b for b in ids if ids.count(b) == 2}
    assert len(ids) == len(set(ids)) + 1
    assert ids[0] == retried  # hit 0 is the first batch applied
    assert sum(b.count for b in applied) - applied[0].count == 16
    assert all(s.planned == 0 for s in kernel.ranking.states())
    # The fault-free answer path resumes after the repair.
    result = kernel.select(_query(1e7, 3e7))
    assert result.count == ground_truth_count(column, 1e7, 3e7)
    kernel.index_for(ColumnRef("R", "A1")).check_invariants()


def test_crash_mid_batch_is_repaired_and_the_retry_completes_it(monkeypatch):
    """A worker dying *inside* the multi-pivot pass (some pivots cut,
    the rest not) must leave a verified column, and the retry of the
    same batch finishes the job: what the first attempt cut is a pivot
    hit the second time."""
    db = _db(columns=1)
    kernel = _kernel(db, num_workers=1)
    pool = kernel.worker_pool
    pool.supervisor = FAST
    applied = _record_batches(pool)
    ensure_cuts = CrackerIndex.ensure_cuts
    crashed = []

    def half_then_die(self, values):
        if not crashed:
            crashed.append(list(values))
            ensure_cuts(self, values[: len(values) // 2])
            raise RuntimeError("died mid-batch")
        return ensure_cuts(self, values)

    monkeypatch.setattr(CrackerIndex, "ensure_cuts", half_then_die)
    outcome = kernel.exploit_idle(actions=12)
    (index,) = kernel.indexes.values()
    index.check_invariants()
    assert len(applied) == 2 and applied[0] is applied[1]
    assert all(index.piece_map.has_pivot(v) for v in crashed[0])
    # The retry reports only what *it* cut; nothing is counted twice.
    assert outcome.actions_done == 12 - len(crashed[0]) // 2
    assert pool.supervisor_summary()["restarts"] == 1
    assert pool.supervisor_summary()["rebuilds"] == 0


# -- quarantine ---------------------------------------------------------


def test_repeated_crashes_quarantine_the_column():
    db = _db(columns=2)
    kernel = _kernel(db, cache_target_elements=8192)
    pool = kernel.worker_pool
    pool.supervisor = SupervisorPolicy(
        max_restarts_per_worker=16,
        quarantine_threshold=2,
        backoff=FAST.backoff,
    )
    a1 = ColumnRef("R", "A1")
    plan = FaultPlan()
    plan.arm("workers.perform", at=[0, 1])
    with engaged(plan):
        # A1 (never queried, one piece) is the only unrefined
        # candidate, so both armed crashes are attributed to it; A2
        # (cracked below the cache target by its select) keeps the
        # candidate set from becoming fully quarantined.
        kernel.index_for(a1)
        kernel.select(_query(1e7, 3e7, "A2"))
        kernel.start_workers()
        try:
            kernel.submit_tuning(24)
            kernel.drain_workers()  # quarantine, not failure
        finally:
            kernel.stop_workers()
    assert plan.injected == 2
    assert plan.unrecovered() == []
    summary = pool.supervisor_summary()
    assert summary["restarts"] == 2
    assert summary["dead_letter"] == ["R.A1"]
    assert summary["crashes_per_column"] == {"R.A1": 2}
    assert any("quarantined R.A1" in line for line in summary["log"])
    # Quarantine gates background tuning only: foreground queries on
    # the dead-lettered column still answer correctly.
    column = db.column("R", "A1")
    result = kernel.select(_query(1e7, 3e7, "A1"))
    assert result.count == ground_truth_count(column, 1e7, 3e7)


def test_quarantine_drops_only_the_columns_own_batches():
    """Threshold crashes on one column dead-letter it mid-window: its
    batch is dropped, its attempts are re-planned on the live columns
    and every reservation is returned."""
    db = _db(columns=3)
    kernel = _kernel(db)
    pool = kernel.worker_pool
    pool.supervisor = SupervisorPolicy(
        max_restarts_per_worker=16,
        quarantine_threshold=2,
        backoff=FAST.backoff,
    )
    a1 = ColumnRef("R", "A1")
    apply_batch = pool._apply_batch

    def a1_explodes(worker_id, batch, access):
        if batch.state.ref == a1:
            raise RuntimeError("A1 kills its worker")
        return apply_batch(worker_id, batch, access)

    pool._apply_batch = a1_explodes
    outcome = kernel.exploit_idle(actions=30)
    summary = pool.supervisor_summary()
    assert summary["dead_letter"] == ["R.A1"]
    assert summary["crashes_per_column"] == {"R.A1": 2}
    assert summary["restarts"] == 2
    report = kernel.tuning_summary()
    assert report.actions_attempted == 30  # A1's share went elsewhere
    credited = {s.ref: s.tuning_actions for s in kernel.ranking.states()}
    assert credited[a1] == 0
    assert credited[ColumnRef("R", "A2")] and credited[ColumnRef("R", "A3")]
    assert outcome.actions_done == sum(credited.values())
    assert [s.planned for s in kernel.ranking.states()] == [0, 0, 0]
    assert kernel.index_for(a1).piece_count == 1


def test_quarantining_every_candidate_is_fatal():
    db = _db(columns=1)
    kernel = _kernel(db)
    pool = kernel.worker_pool
    pool.supervisor = SupervisorPolicy(
        quarantine_threshold=1, backoff=FAST.backoff
    )
    plan = FaultPlan()
    plan.arm("workers.perform", at=0)
    with engaged(plan):
        kernel.select(_query(1e7, 3e7))
        kernel.start_workers()
        try:
            kernel.submit_tuning(8)
            with pytest.raises(
                ConcurrencyError, match="every tuning candidate is quarantined"
            ):
                pool.drain()
        finally:
            with pytest.raises(ConcurrencyError):
                pool.stop()
            pool.clear_failure()
    # Losing the whole candidate set is not claimed as a recovery.
    assert plan.unrecovered() != []


# -- sticky fatal failures ----------------------------------------------


def test_failure_is_sticky_until_cleared():
    db = _db()
    kernel = _kernel(db, cache_target_elements=8192)
    pool = kernel.worker_pool
    pool.supervisor = SupervisorPolicy(
        max_restarts_per_worker=1,
        quarantine_threshold=1000,
        backoff=FAST.backoff,
    )

    def explode(worker_id, batch, access):
        raise RuntimeError("genuine worker bug")

    pool._apply_batch = explode
    kernel.start_workers()
    kernel.submit_tuning(8)
    with pytest.raises(ConcurrencyError, match="tuning worker died"):
        pool.drain()
    # Sticky: later drains and the stop keep reporting the loss.
    with pytest.raises(ConcurrencyError, match="tuning worker died"):
        pool.drain()
    with pytest.raises(ConcurrencyError, match="tuning worker died"):
        pool.stop()
    failure = pool.clear_failure()
    assert isinstance(failure, RuntimeError)
    assert pool.clear_failure() is None


def test_failure_is_sticky_but_next_lifecycle_is_clean():
    db = _db()
    kernel = _kernel(db, cache_target_elements=8192)
    pool = kernel.worker_pool
    pool.supervisor = SupervisorPolicy(
        max_restarts_per_worker=0,
        quarantine_threshold=1000,
        backoff=FAST.backoff,
    )

    def explode(worker_id, batch, access):
        raise RuntimeError("genuine worker bug")

    pool._apply_batch = explode
    kernel.start_workers()
    kernel.submit_tuning(4)
    with pytest.raises(ConcurrencyError):
        pool.stop()
    assert isinstance(pool.clear_failure(), RuntimeError)
    # With the crashing action gone, a fresh lifecycle drains cleanly.
    del pool._apply_batch
    kernel.start_workers()
    try:
        kernel.submit_tuning(4)
        kernel.drain_workers()
    finally:
        kernel.stop_workers()


def test_genuine_crashes_are_not_credited_to_the_fault_plan():
    """A real (non-injected) error must not consume an armed fault's
    recovery bookkeeping: nothing was injected, so nothing can be
    marked recovered."""
    db = _db()
    kernel = _kernel(db, cache_target_elements=8192)
    pool = kernel.worker_pool
    pool.supervisor = SupervisorPolicy(
        max_restarts_per_worker=1,
        quarantine_threshold=1000,
        backoff=FAST.backoff,
    )

    def explode(worker_id, batch, access):
        raise RuntimeError("genuine worker bug")

    plan = FaultPlan()  # engaged but with nothing armed
    with engaged(plan):
        pool._apply_batch = explode
        kernel.start_workers()
        kernel.submit_tuning(2)
        with pytest.raises(ConcurrencyError):
            pool.stop()
        pool.clear_failure()
    assert plan.injected == 0
    assert plan.summary()["recovered"] == 0


# -- exhaustion vs. stuck (regression for _choose_state) -----------------


def test_quarantined_best_with_live_unrefined_candidate_is_stuck():
    """The ranked policy re-offers the dead-lettered best forever; with
    a live unrefined candidate it refuses to rotate to, submitted
    actions would silently no-op -- that must be a sticky failure."""
    db = _db(columns=2)
    kernel = _kernel(db, cache_target_elements=8192, policy="ranked")
    pool = kernel.worker_pool
    pool.supervisor = FAST
    a1 = ColumnRef("R", "A1")
    a2 = ColumnRef("R", "A2")
    kernel.index_for(a1)
    kernel.index_for(a2)
    for _ in range(3):  # make A1 strictly the ranked best
        kernel.ranking.note_query(a1)
    pool.dead_letter.append(a1)
    kernel.start_workers()
    try:
        kernel.submit_tuning(4)
        with pytest.raises(
            ConcurrencyError,
            match="every candidate the tuning policy offers is quarantined",
        ):
            pool.drain()
    finally:
        with pytest.raises(ConcurrencyError):
            pool.stop()
        pool.clear_failure()


def test_quarantined_remainder_with_refined_live_set_is_exhaustion():
    """When every live candidate is already refined, the only unrefined
    work left is the quarantined set: that is clean exhaustion, not a
    failure."""
    db = _db(columns=2)
    kernel = _kernel(db, cache_target_elements=8192, policy="ranked")
    pool = kernel.worker_pool
    pool.supervisor = FAST
    a1 = ColumnRef("R", "A1")
    kernel.index_for(a1)  # one piece: unrefined
    kernel.select(_query(1e7, 3e7, "A2"))  # cracked: refined at 8192
    states = {s.ref: s for s in kernel.ranking.states()}
    assert kernel.ranking.is_refined(states[ColumnRef("R", "A2")])
    assert not kernel.ranking.is_refined(states[a1])
    pool.dead_letter.append(a1)
    kernel.start_workers()
    try:
        kernel.submit_tuning(4)
        kernel.drain_workers()  # clean: nothing safe is left to do
    finally:
        kernel.stop_workers()
    assert pool.dead_letter == [a1]
