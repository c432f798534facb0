"""Bench: the ablation studies A1-A4 (``repro.bench.ablations``)."""

import pytest

from repro.bench.ablations import (
    ablation_cache_target,
    ablation_policies,
    ablation_stochastic,
    ablation_text,
)
from repro.config import TINY


@pytest.mark.benchmark(group="ablations")
def test_bench_ablation_policies(benchmark):
    rows = benchmark.pedantic(
        ablation_policies,
        args=(TINY,),
        kwargs={"seed": 42, "idle_actions": 100},
        iterations=1,
        rounds=1,
    )
    print()
    print(ablation_text("A1: resource-spreading policies", rows))
    assert {r.label for r in rows} == {
        "round_robin",
        "ranked",
        "weighted_random",
    }
    assert all(r.total_response_s > 0 for r in rows)


@pytest.mark.benchmark(group="ablations")
def test_bench_ablation_stochastic(benchmark):
    rows = benchmark.pedantic(
        ablation_stochastic,
        args=(TINY,),
        kwargs={"seed": 42},
        iterations=1,
        rounds=1,
    )
    print()
    print(ablation_text("A2: stochastic vs plain cracking", rows))
    totals = {r.label: r.total_response_s for r in rows}
    # [10]: data-driven cracking is robust where plain cracking is not.
    assert totals["ddr"] < totals["standard"]
    assert totals["ddc"] < totals["standard"]


@pytest.mark.benchmark(group="ablations")
def test_bench_ablation_batch_tuning(benchmark):
    from repro.bench.ablations import ablation_batch_tuning

    rows = benchmark.pedantic(
        ablation_batch_tuning,
        args=(TINY,),
        kwargs={"seed": 42, "idle_actions": 300},
        iterations=1,
        rounds=1,
    )
    print()
    print(ablation_text("A4: sequential vs batched idle tuning", rows))
    by_label = {r.label: r for r in rows}
    # Batched refinement must spend less virtual idle time for the
    # same action budget (the "in one go" optimization).
    seq_idle = float(by_label["sequential"].detail.split()[3])
    batch_idle = float(by_label["batched"].detail.split()[3])
    assert batch_idle < seq_idle


@pytest.mark.benchmark(group="ablations")
def test_bench_ablation_cache_target(benchmark):
    rows = benchmark.pedantic(
        ablation_cache_target,
        args=(TINY,),
        kwargs={"seed": 42, "idle_actions": 500},
        iterations=1,
        rounds=1,
    )
    print()
    print(ablation_text("A3: cache-fit stopping criterion", rows))
    # Stopping refinement at very coarse pieces must hurt.
    assert rows[-1].total_response_s >= rows[0].total_response_s
