"""Unit tests for the holistic kernel."""

import pytest

from repro.engine.plan import group_by_column
from repro.engine.query import RangeQuery
from repro.engine.strategies import AdaptiveStrategy
from repro.errors import ConfigError
from repro.holistic.kernel import HolisticConfig, HolisticKernel
from repro.offline.whatif import WorkloadStatement
from repro.storage.catalog import ColumnRef

from tests.conftest import ground_truth_count


def _query(low, high, column="A1"):
    return RangeQuery(ColumnRef("R", column), low, high)


def test_select_is_correct_and_refines(tiny_db):
    kernel = HolisticKernel(tiny_db)
    result = kernel.select(_query(1e7, 3e7))
    assert result.count == ground_truth_count(
        tiny_db.column("R", "A1"), 1e7, 3e7
    )
    index = kernel.index_for(ColumnRef("R", "A1"))
    assert index.crack_count >= 2


def test_idle_requires_some_budget(tiny_db):
    kernel = HolisticKernel(tiny_db)
    with pytest.raises(ConfigError):
        kernel.exploit_idle()


def test_idle_with_hints_tunes_hinted_columns(tiny_db):
    kernel = HolisticKernel(tiny_db)
    kernel.hint_workload(
        [WorkloadStatement(ColumnRef("R", "A2"), 0, 1, weight=10)]
    )
    outcome = kernel.exploit_idle(actions=10)
    assert outcome.actions_done > 0
    assert kernel.index_for(ColumnRef("R", "A2")).crack_count > 0
    # Unhinted columns untouched.
    assert kernel.index_for(ColumnRef("R", "A1")).crack_count == 0


def test_idle_without_knowledge_bootstraps_from_catalog(tiny_db):
    """The paper's "no knowledge" case: catalog-driven spreading."""
    kernel = HolisticKernel(tiny_db)
    outcome = kernel.exploit_idle(actions=9)
    assert outcome.actions_done > 0
    # Round-robin across all three catalog columns.
    per_column = [
        kernel.index_for(ColumnRef("R", f"A{i}")).crack_count
        for i in (1, 2, 3)
    ]
    assert all(count > 0 for count in per_column)


def test_idle_prefers_monitored_columns_over_catalog(tiny_db):
    kernel = HolisticKernel(tiny_db)
    kernel.select(_query(1e6, 2e6, "A2"))
    kernel.exploit_idle(actions=6)
    a2_cracks = kernel.index_for(ColumnRef("R", "A2")).crack_count
    assert a2_cracks > 2  # query cracks + tuning cracks
    assert kernel.index_for(ColumnRef("R", "A1")).crack_count == 0


def test_features_row_matches_paper(tiny_db):
    from repro.bench.features import PAPER_TABLE1

    features = HolisticKernel(tiny_db).features()
    expected = PAPER_TABLE1["holistic"]
    assert features.statistical_analysis == expected[0]
    assert features.idle_a_priori == expected[1]
    assert features.idle_during_workload == expected[2]
    assert features.incremental_indexing == expected[3]
    assert features.workload == expected[4]


def test_idle_improves_future_queries(tiny_db):
    """The paper's core claim at unit scale."""
    kernel = HolisticKernel(tiny_db)
    kernel.hint_workload(
        [WorkloadStatement(ColumnRef("R", "A1"), 0, 1, weight=10)]
    )
    clock = tiny_db.clock
    kernel.exploit_idle(actions=200)
    t0 = clock.now()
    kernel.select(_query(1e7, 2e7))
    tuned_cost = clock.now() - t0

    # Fresh kernel without tuning on an identical database.
    from repro.storage.database import Database
    from repro.storage.loader import build_paper_table
    from repro.simtime.clock import SimClock
    from repro.config import TINY

    db2 = Database(clock=SimClock(TINY.cost_model()))
    db2.add_table(build_paper_table(rows=10_000, columns=3, seed=42))
    cold = HolisticKernel(db2)
    t0 = db2.clock.now()
    cold.select(_query(1e7, 2e7))
    cold_cost = db2.clock.now() - t0
    assert tuned_cost < cold_cost / 5


def test_config_validation():
    with pytest.raises(ConfigError):
        HolisticConfig(num_workers=-1)


@pytest.mark.parametrize(
    "options",
    [
        {},
        {"policy": "ranked", "batch_tuning": True},
        {"policy": "weighted_random", "cache_target_elements": 2},
        {"num_workers": 2, "seed": None},
    ],
)
def test_windows_run_batched_unless_workers_race(tiny_db, options):
    """The kernel's window pass (``begin_batch``, which no session
    calls any more) never declines: tuning workers run only inside an
    idle window, so none races it, whatever else is configured."""
    kernel = HolisticKernel(tiny_db, HolisticConfig(**options))
    queries = [_query(1e7, 3e7), _query(2e7, 6e7, "A2"), _query(5e6, 1e7)]
    windows = group_by_column(queries, tiny_db.catalog, {})
    assert len(kernel.begin_batch(queries, windows)) == len(queries)
    kernel.exploit_idle(actions=8)
    assert len(kernel.begin_batch(queries, windows)) == len(queries)


def test_cache_target_derived_from_model_scale(tiny_db):
    kernel = HolisticKernel(tiny_db)
    constants = tiny_db.cost_model.constants
    expected = max(
        1,
        int(constants.cache_elements() / tiny_db.cost_model.scale),
    )
    assert kernel.cache_target_elements == expected


def test_tuning_summary_aggregates(tiny_db):
    kernel = HolisticKernel(tiny_db)
    kernel.exploit_idle(actions=5)
    kernel.exploit_idle(actions=5)
    assert kernel.tuning_summary().actions_attempted == 10
    assert kernel.idle_windows == 2


def test_kernel_is_adaptive_cracking_by_inheritance():
    """Plain cracking is written once: the kernel inherits adaptive's
    access path, and overrides only what it adds or what
    perfbench/layers.py wraps by name."""
    assert issubclass(HolisticKernel, AdaptiveStrategy)
    assert "access_path" not in HolisticKernel.__dict__
    for pinned in ("select", "begin_batch", "exploit_idle", "index_for"):
        assert pinned in HolisticKernel.__dict__


def test_kernel_seed_is_the_config_seed(tiny_db):
    assert HolisticKernel(tiny_db, HolisticConfig(seed=7)).seed == 7
    assert HolisticKernel(tiny_db).seed == HolisticConfig().seed
