"""Unit tests for the idle-time scheduler and the idle-window loop."""

import pytest

from repro.config import TINY
from repro.cracking.index import CrackerIndex
from repro.cracking.piece import CrackOrigin
from repro.engine.query import RangeQuery
from repro.errors import ConfigError
from repro.holistic.kernel import HolisticConfig, HolisticKernel
from repro.holistic.policies import RoundRobinPolicy
from repro.holistic.ranking import ColumnRanking
from repro.holistic.scheduler import IdleScheduler
from repro.holistic.tuner import AuxiliaryTuner
from repro.online.monitor import WorkloadMonitor
from repro.simtime.clock import SimClock
from repro.storage.catalog import ColumnRef
from repro.storage.database import Database
from repro.storage.loader import build_paper_table, generate_uniform_column


def _scheduler(columns=3, rows=5_000, target=10):
    clock = SimClock()
    ranking = ColumnRanking(target, WorkloadMonitor())
    for i in range(1, columns + 1):
        name = f"A{i}"
        column = generate_uniform_column(name, rows=rows, seed=i)
        index = CrackerIndex(column, clock=clock)
        ranking.register(ColumnRef("R", name), index)
    tuner = AuxiliaryTuner(seed=42, min_piece_size=target)
    return IdleScheduler(clock, ranking, RoundRobinPolicy(), tuner), clock


def test_run_actions_spreads_round_robin():
    scheduler, _ = _scheduler(columns=3)
    report = scheduler.run_actions(9)
    assert report.actions_attempted == 9
    credited = {s.tuning_actions for s in scheduler.ranking.states()}
    assert credited == {3}
    assert report.stop_reason == "action budget exhausted"


def test_run_actions_zero_is_noop():
    scheduler, clock = _scheduler()
    t0 = clock.now()
    report = scheduler.run_actions(0)
    assert report.actions_attempted == 0
    assert clock.now() == t0


def test_run_budget_consumes_time():
    scheduler, clock = _scheduler(rows=50_000)
    budget = 0.01
    report = scheduler.run_budget(budget)
    assert clock.now() >= budget or (
        report.stop_reason == "all candidates refined"
    )
    assert report.actions_attempted > 0


def test_stops_when_everything_refined():
    # Tiny columns with a huge target: refined from the start.
    scheduler, _ = _scheduler(rows=5, target=1_000)
    report = scheduler.run_actions(100)
    assert report.actions_attempted == 0
    assert report.stop_reason == "all candidates refined"


def test_refinement_progresses_piece_counts():
    scheduler, _ = _scheduler(columns=2)
    states = scheduler.ranking.states()
    before = [s.index.piece_count for s in states]
    scheduler.run_actions(20)
    after = [s.index.piece_count for s in states]
    assert all(b > a for a, b in zip(before, after))


# -- the window loop, through the kernel ---------------------------------


def _kernel(workers=0, rows=5_000, target=10, **options):
    db = Database(clock=SimClock(TINY.cost_model()))
    db.add_table(build_paper_table(rows=rows, columns=3, seed=1))
    config = HolisticConfig(
        num_workers=workers, cache_target_elements=target, **options
    )
    return HolisticKernel(db, config)


def _idle(kernel, **window):
    before = kernel.clock.now()
    outcome = kernel.exploit_idle(**window)
    return outcome, kernel.clock.now() - before


def _rejects(window, message):
    """Both kernels refuse ``window`` before registering anything."""
    for workers in (0, 2):
        kernel = _kernel(workers)
        with pytest.raises(ConfigError, match=message):
            kernel.exploit_idle(**window)
        assert kernel.indexes == {}
        assert kernel.idle_windows == 0


def test_exploit_idle_needs_a_window():
    _rejects({}, "time budget or an action count")


def test_exploit_idle_rejects_negative_actions():
    _rejects({"actions": -1}, "actions must be >= 0")
    # The action count sizes the window, so it is the one checked.
    _rejects({"actions": -1, "budget_s": 1.0}, "actions must be >= 0")


def test_exploit_idle_rejects_negative_budget():
    _rejects({"budget_s": -0.1}, "budget must be >= 0")


def test_lifetime_accumulates():
    for workers in (0, 2):
        kernel = _kernel(workers)
        kernel.exploit_idle(actions=4)
        kernel.exploit_idle(actions=5)
        assert kernel.tuning_summary().actions_attempted == 9


@pytest.mark.parametrize("workers", [0, 2])
def test_action_window_stops_on_its_budget(workers):
    kernel = _kernel(workers)
    outcome = kernel.exploit_idle(actions=9)
    assert outcome.note.endswith("(action budget exhausted)")
    assert kernel.tuning_summary().actions_attempted == 9


@pytest.mark.parametrize("workers", [0, 2])
def test_time_window_stops_on_its_budget(workers):
    kernel = _kernel(workers, rows=50_000)
    outcome, consumed = _idle(kernel, budget_s=0.01)
    assert outcome.note.endswith("(time budget exhausted)")
    assert consumed >= 0.01
    assert outcome.actions_done > 0


@pytest.mark.parametrize("workers", [0, 2])
def test_window_stops_when_everything_refined(workers):
    # Tiny columns with a huge target: refined from the start.
    kernel = _kernel(workers, rows=5, target=1_000)
    for window in ({"actions": 100}, {"budget_s": 1.0}):
        outcome, consumed = _idle(kernel, **window)
        assert outcome.note.endswith("(all candidates refined)")
        assert consumed == 0.0
    assert kernel.tuning_summary().actions_attempted == 0


@pytest.mark.parametrize(
    "options",
    [
        {"num_workers": 0},
        {"num_workers": 0, "batch_tuning": True},
        {"num_workers": 1},
        {"num_workers": 2},
    ],
    ids=["serial", "batched", "1-worker", "2-workers"],
)
def test_every_window_counts_its_cracks_once(options):
    """A window's effective actions, the tape's tuning cracks, the
    ranking's per-column credit and (with workers) the workers' own
    counters are one count of the same cracks."""
    db = Database(clock=SimClock(TINY.cost_model()))
    db.add_table(build_paper_table(rows=100_000, columns=2, seed=3))
    kernel = HolisticKernel(
        db, HolisticConfig(cache_target_elements=64, **options)
    )
    for column in ("A1", "A2"):
        kernel.select(RangeQuery(ColumnRef("R", column), 2e7, 3e7))

    def counts():
        pool = kernel.worker_pool
        return (
            kernel.tape.count(CrackOrigin.TUNING),
            sum(s.tuning_actions for s in kernel.ranking.states()),
            sum(s.actions_effective for s in pool.worker_stats())
            if pool is not None
            else None,
        )

    before = counts()
    outcome = kernel.exploit_idle(actions=40)
    after = counts()
    assert outcome.actions_done > 20
    assert after[0] - before[0] == outcome.actions_done
    assert after[1] - before[1] == outcome.actions_done
    if kernel.worker_pool is not None:
        assert after[2] - before[2] == outcome.actions_done
