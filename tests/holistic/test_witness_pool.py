"""The tuning worker pool under the latch witness.

The pool arms every registered index when an idle window starts it
while a witness is enabled; a run of queries and worker-drained idle
windows must then finish with zero order violations and zero unlatched
mutations -- the runtime proof that the worker protocol matches the
statically-verified latch order.
"""

from __future__ import annotations

import pytest

from repro.analysis import witness
from repro.config import TINY
from repro.engine.query import RangeQuery
from repro.holistic.kernel import HolisticConfig, HolisticKernel
from repro.simtime.clock import SimClock
from repro.storage.catalog import ColumnRef
from repro.storage.database import Database
from repro.storage.loader import build_paper_table

from tests.conftest import ground_truth_count


@pytest.fixture(autouse=True)
def _no_leaked_witness():
    yield
    witness.disable()


def _db(rows=10_000, seed=42) -> Database:
    db = Database(clock=SimClock(TINY.cost_model()))
    db.add_table(build_paper_table(rows=rows, columns=3, seed=seed))
    return db


def _query(low, high, column="A1"):
    return RangeQuery(ColumnRef("R", column), low, high)


def test_worker_pool_run_has_zero_witness_violations():
    db = _db()
    kernel = HolisticKernel(
        db, HolisticConfig(num_workers=4, cache_target_elements=64)
    )
    column = db.catalog.column(ColumnRef("R", "A1"))
    with witness.enabled() as w:
        for i in range(30):
            low = (i * 3_333_333) % 90_000_000
            high = low + 5_000_000
            result = kernel.select(_query(low, high))
            assert result.count == ground_truth_count(column, low, high)
            kernel.exploit_idle(actions=20)
    assert w.violations == [], [v.detail for v in w.violations]
    assert w.acquires == w.releases > 0
    assert w.mutation_checks > 0


def test_pool_disarms_indexes_on_stop():
    db = _db(rows=2_000)
    kernel = HolisticKernel(
        db, HolisticConfig(num_workers=2, cache_target_elements=64)
    )
    with witness.enabled() as w:
        kernel.exploit_idle(actions=50)
        # After the window the indexes are disarmed: an unlatched pass
        # of the kind workers make is legal again on the now-quiescent
        # index (single-owner mode).
        checks = w.mutation_checks
        kernel.index_for(ColumnRef("R", "A1")).ensure_cuts([3e7, 6e7])
        assert w.mutation_checks == checks
    assert w.violations == []
