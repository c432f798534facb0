"""Unit tests for resource-spreading policies."""

import numpy as np
import pytest

from repro.cracking.index import CrackerIndex
from repro.errors import ConfigError
from repro.holistic.policies import (
    RankedPolicy,
    RoundRobinPolicy,
    WeightedRandomPolicy,
    make_policy,
)
from repro.holistic.ranking import ColumnRanking
from repro.online.monitor import WorkloadMonitor
from repro.simtime.clock import SimClock
from repro.storage.catalog import ColumnRef
from repro.storage.loader import generate_uniform_column


@pytest.fixture
def ranking() -> ColumnRanking:
    ranking = ColumnRanking(10, WorkloadMonitor())
    for i in range(1, 4):
        name = f"A{i}"
        column = generate_uniform_column(name, rows=1_000, seed=i)
        index = CrackerIndex(column, clock=SimClock())
        ranking.register(ColumnRef("R", name), index, workload_weight=i)
    return ranking


def test_round_robin_cycles(ranking):
    policy = RoundRobinPolicy()
    chosen = [policy.choose(ranking).ref.column for _ in range(6)]
    assert chosen == ["A1", "A2", "A3", "A1", "A2", "A3"]


def test_round_robin_skips_refined(ranking):
    policy = RoundRobinPolicy()
    # Shrink A2 below the target by marking it refined artificially:
    # register a tiny column in its place.
    tiny = generate_uniform_column("A2", rows=5, seed=9)
    state = ranking.register(
        ColumnRef("R", "A2"), CrackerIndex(tiny, clock=SimClock())
    )
    state.index = CrackerIndex(tiny, clock=SimClock())
    chosen = [policy.choose(ranking).ref.column for _ in range(4)]
    assert "A2" not in chosen


def test_round_robin_empty_ranking():
    ranking = ColumnRanking(10, WorkloadMonitor())
    assert RoundRobinPolicy().choose(ranking) is None


def test_ranked_picks_best(ranking):
    policy = RankedPolicy()
    # A3 has the highest workload weight.
    assert policy.choose(ranking).ref.column == "A3"


def test_weighted_random_prefers_heavy(ranking):
    policy = WeightedRandomPolicy(seed=0)
    picks = [policy.choose(ranking).ref.column for _ in range(300)]
    counts = {c: picks.count(c) for c in ("A1", "A2", "A3")}
    assert counts["A3"] > counts["A1"]


def test_weighted_random_empty_ranking():
    ranking = ColumnRanking(10, WorkloadMonitor())
    assert WeightedRandomPolicy(seed=0).choose(ranking) is None


def test_make_policy_resolves_names():
    assert isinstance(make_policy("round_robin"), RoundRobinPolicy)
    assert isinstance(make_policy("ranked"), RankedPolicy)
    assert isinstance(
        make_policy("weighted_random", seed=1), WeightedRandomPolicy
    )


def test_make_policy_rejects_unknown():
    with pytest.raises(ConfigError):
        make_policy("alphabetical")
