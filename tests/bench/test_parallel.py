"""Acceptance tests for ExpP: refinement convergence vs worker count.

The sweep runs the holistic kernel's ``num_workers`` knob over the
same multi-column refinement workload and checks the multi-core shape
of the paper's idle-core argument (Alvarez et al.'s scaling): the
virtual idle time to converge falls from 1 to 2 to 4 workers, because
parallel lanes overlap worker charges while the window plans keep the
refinements conflict-free.  Plans are static and pivots are drawn per
column at plan time, so the sweep is a function of the seed -- the
comparisons below are between fixed numbers, not racing threads.
"""

from dataclasses import asdict

import pytest

from repro.bench.exp_parallel import run_parallel_sweep


@pytest.mark.slow
def test_convergence_improves_with_cores():
    result = run_parallel_sweep(
        "tiny",
        worker_counts=(0, 1, 2, 4),
        columns=3,
        actions_per_window=96,
        seed=42,
    )
    for workers in (0, 1, 2, 4):
        run = result.run_for(workers)
        assert run.converged
        assert run.actions_effective > 0

    one, two, four = (result.run_for(w) for w in (1, 2, 4))
    assert one.idle_consumed_s > two.idle_consumed_s > four.idle_consumed_s
    # The batched serial scheduler (workers=0) and one worker do the
    # same aggregate work: k pivots in a piece are one pass for both,
    # and one lane overlaps with nothing.
    assert one.idle_consumed_s == pytest.approx(
        result.run_for(0).idle_consumed_s, rel=0.25
    )
    # Parallel lanes overlap for real: 4 workers at least ~1.5x.
    assert four.busy_s / four.idle_consumed_s > 1.5


@pytest.mark.slow
def test_sweep_repeats_exactly_and_scales_on_two_columns():
    """Fewer columns than workers: columns are split at piece
    boundaries, so four workers still beat two -- and two sweeps of
    one seed agree to the last bit."""
    first = run_parallel_sweep("tiny")
    again = run_parallel_sweep("tiny")
    assert first.columns == 2
    assert {w: asdict(run) for w, run in first.runs.items()} == {
        w: asdict(run) for w, run in again.runs.items()
    }
    one, two, four = (first.run_for(w).idle_consumed_s for w in (1, 2, 4))
    assert one > two > four
