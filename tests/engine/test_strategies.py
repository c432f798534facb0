"""Unit tests for the scan/adaptive/offline/online strategies."""

import pytest

from repro.engine.query import RangeQuery
from repro.engine.strategies import (
    AdaptiveStrategy,
    OfflineStrategy,
    OnlineStrategy,
    ScanStrategy,
)
from repro.errors import ConfigError
from repro.offline.whatif import WorkloadStatement
from repro.online.colt import EPOCH_QUERIES
from repro.storage.catalog import ColumnRef

from tests.conftest import ground_truth_count


def _query(low: float, high: float, column: str = "A1") -> RangeQuery:
    return RangeQuery(ColumnRef("R", column), low, high)


def _truth(db, low, high, column="A1"):
    return ground_truth_count(db.column("R", column), low, high)


def test_scan_strategy_correct_and_flat(tiny_db):
    strategy = ScanStrategy(tiny_db)
    clock = tiny_db.clock
    costs = []
    for i in range(5):
        t0 = clock.now()
        result = strategy.select(_query(i * 1e6, (i + 1) * 1e6))
        costs.append(clock.now() - t0)
        assert result.count == _truth(tiny_db, i * 1e6, (i + 1) * 1e6)
    # No learning: every scan costs the same.
    assert max(costs) == pytest.approx(min(costs), rel=0.05)


@pytest.mark.parametrize(
    "variant", ["standard", "ddc", "ddr", "mdd1r"]
)
def test_adaptive_variants_correct(tiny_db, variant):
    strategy = AdaptiveStrategy(tiny_db, variant=variant, seed=3)
    for low, high in [(1e6, 2e7), (3e7, 4e7), (5e6, 1.5e7)]:
        result = strategy.select(_query(low, high))
        assert result.count == _truth(tiny_db, low, high)


def test_adaptive_unknown_variant_rejected(tiny_db):
    with pytest.raises(ConfigError):
        AdaptiveStrategy(tiny_db, variant="nope")


def test_adaptive_keeps_one_index_per_column(tiny_db):
    strategy = AdaptiveStrategy(tiny_db)
    strategy.select(_query(1e6, 2e6, "A1"))
    strategy.select(_query(1e6, 2e6, "A2"))
    strategy.select(_query(3e6, 4e6, "A1"))
    assert len(strategy.indexes) == 2


def test_offline_builds_on_first_idle_only(tiny_db):
    strategy = OfflineStrategy(tiny_db, build_policy="always_build")
    strategy.hint_workload(
        [WorkloadStatement(ColumnRef("R", "A1"), 0, 1, weight=100)]
    )
    outcome = strategy.exploit_idle(budget_s=0.001)
    assert outcome.blocking
    assert outcome.actions_done == 1
    # Second window: nothing left to do (Table 1: offline exploits
    # only a-priori idle time).
    before = strategy.clock.now()
    second = strategy.exploit_idle(budget_s=100.0)
    assert second.actions_done == 0
    assert strategy.clock.now() == before


def test_offline_fit_budget_skips_unaffordable(tiny_db):
    strategy = OfflineStrategy(tiny_db, build_policy="fit_budget")
    strategy.hint_workload(
        [WorkloadStatement(ColumnRef("R", "A1"), 0, 1, weight=100)]
    )
    outcome = strategy.exploit_idle(budget_s=1e-6)
    assert outcome.actions_done == 0
    result = strategy.select(_query(1e6, 2e6))
    assert result.count == _truth(tiny_db, 1e6, 2e6)  # via scan


def test_offline_probes_after_build(tiny_db):
    strategy = OfflineStrategy(tiny_db, build_policy="always_build")
    strategy.hint_workload(
        [WorkloadStatement(ColumnRef("R", "A1"), 0, 1, weight=100)]
    )
    strategy.exploit_idle(budget_s=100.0)
    clock = tiny_db.clock
    t0 = clock.now()
    result = strategy.select(_query(1e6, 2e6))
    assert result.count == _truth(tiny_db, 1e6, 2e6)
    assert clock.now() - t0 < 1e-3  # probe, not scan


def test_offline_invalid_policy_rejected(tiny_db):
    with pytest.raises(ConfigError):
        OfflineStrategy(tiny_db, build_policy="yolo")


def test_online_builds_index_for_hot_column(tiny_db):
    strategy = OnlineStrategy(tiny_db)
    for i in range(EPOCH_QUERIES + 5):
        low = (i % 5) * 1e6
        result = strategy.select(_query(low, low + 1e6))
        assert result.count == _truth(tiny_db, low, low + 1e6)
    assert strategy.colt.index_for(ColumnRef("R", "A1")) is not None


def test_online_epoch_build_delays_triggering_query(tiny_db):
    strategy = OnlineStrategy(tiny_db)
    clock = tiny_db.clock
    costs = []
    for i in range(EPOCH_QUERIES + 1):
        t0 = clock.now()
        strategy.select(_query(1e6, 2e6))
        costs.append(clock.now() - t0)
    # The epoch's last query triggered it: it carries the inline build
    # cost, and the next query probes the index.
    last = EPOCH_QUERIES - 1
    assert costs[last] > 5 * max(costs[:last])
    assert costs[last + 1] < min(costs[:last])


def test_removed_options_are_rejected(tiny_db):
    """The hybrid variant, soft indexes and the baselines' tuning
    options are gone; asking for them must fail loudly rather than
    silently run something else."""
    with pytest.raises(ConfigError, match="hybrid"):
        AdaptiveStrategy(tiny_db, variant="hybrid")
    with pytest.raises(TypeError, match="soft"):
        OnlineStrategy(tiny_db, soft=True)
    with pytest.raises(TypeError, match="epoch_queries"):
        OnlineStrategy(tiny_db, epoch_queries=10)
    with pytest.raises(TypeError, match="max_indexes"):
        OfflineStrategy(tiny_db, max_indexes=1)
    with pytest.raises(TypeError, match="soft"):
        tiny_db.session("online", soft=True)


def test_feature_rows_match_paper_table1(tiny_db):
    from repro.bench.features import PAPER_TABLE1

    for name, cls in (
        ("offline", OfflineStrategy),
        ("online", OnlineStrategy),
        ("adaptive", AdaptiveStrategy),
    ):
        features = cls(tiny_db).features()
        expected = PAPER_TABLE1[name]
        assert features.statistical_analysis == expected[0]
        assert features.idle_a_priori == expected[1]
        assert features.idle_during_workload == expected[2]
        assert features.incremental_indexing == expected[3]
        assert features.workload == expected[4]
