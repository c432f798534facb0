"""Bench: ExpP -- refinement convergence vs tuning worker count.

Sweeps the holistic kernel's ``num_workers`` knob over the same
multi-column refinement workload and checks the multi-core shape: the
virtual idle time to converge improves monotonically from 1 to 4
workers, because the parallel lanes overlap worker charges while the
window plans keep the refinements conflict-free.  Plans are static and
pivots are drawn per column at plan time, so the sweep is a function
of the seed -- the comparisons below are between fixed numbers, not
between racing threads.
"""

from dataclasses import asdict

import pytest

from repro.bench.exp_parallel import expp_text, run_parallel_sweep


@pytest.mark.benchmark(group="parallel")
def test_bench_parallel_convergence_vs_cores(benchmark):
    result = benchmark.pedantic(
        run_parallel_sweep,
        args=("tiny",),
        kwargs={
            "worker_counts": (0, 1, 2, 4),
            "columns": 3,
            "actions_per_window": 96,
            "seed": 42,
        },
        iterations=1,
        rounds=1,
    )
    print()
    print(expp_text(result))

    for workers in (0, 1, 2, 4):
        run = result.run_for(workers)
        assert run.converged
        assert run.actions_effective > 0

    # Convergence improves monotonically with cores (the paper's
    # idle-core claim; Alvarez et al.'s multi-core scaling shape).
    serial = result.run_for(1).idle_consumed_s
    two = result.run_for(2).idle_consumed_s
    four = result.run_for(4).idle_consumed_s
    assert serial > two > four

    # The batched serial scheduler (the sweep's workers=0 row) and a
    # single worker do the same aggregate work -- k pivots in a piece
    # are one pass for both, and one lane cannot overlap with anything.
    one = result.run_for(1)
    baseline = result.run_for(0)
    assert one.idle_consumed_s == pytest.approx(
        baseline.idle_consumed_s, rel=0.25
    )

    # Parallel lanes overlap for real: 4 workers at least ~1.5x.
    assert result.run_for(4).speedup_vs_serial_work > 1.5


def test_parallel_sweep_repeats_exactly_and_scales_on_two_columns():
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
    assert all(first.run_for(w).stalls == 0 for w in (1, 2, 4))
