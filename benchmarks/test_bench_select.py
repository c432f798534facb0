"""Wall-clock microbenchmarks of the per-query path on a converged index.

``Session.run_query`` on a 10^6-row holistic session whose column is
cut at every point of a 320-point grid (pieces of ~3,100 rows, under
the cache target, so idle time has nothing left to refine) -- the
shape ``perfbench``'s ``warm_steady`` converges to, readable without
it.  Three cases, timed per round of ``READS`` queries:

* both bounds are pivots and no pending row is in range: one piece-map
  probe, one probe of each delta store, two probe charges;
* both bounds are pivots and pending rows are in range: the same plus
  the overlay and its charge;
* the low bound is a pivot and the high bound is fresh: one crack of a
  grid-sized piece on top.

The delta store holds 50 inserts and 25 deletes, all in the upper half
of the domain; the first case reads the lower half.
"""

import numpy as np
import pytest

from repro import Database, RangeQuery, SimClock
from repro.storage.catalog import ColumnRef
from repro.storage.table import Table

GRID_POINTS = 320
#: Queries a round answers (times are per round).
READS = 64
REF = ColumnRef("R", "A1")


@pytest.fixture(scope="module")
def converged(bench_column):
    """``(session, grid, fresh)``: the session, its cut points and a
    generator of values that are not cut points yet."""
    db = Database(clock=SimClock())
    table = Table("R")
    table.add_column(bench_column)
    db.add_table(table)
    session = db.session("holistic")
    stats = bench_column.stats
    grid = np.linspace(
        stats.min_value, stats.max_value + 1, GRID_POINTS + 1
    ).tolist()
    for low, high in zip(grid, grid[1:]):
        session.run_query(RangeQuery(REF, low, high))
    assert session.idle(actions=64).actions_done == 0
    rng = np.random.default_rng(31)
    upper = (grid[GRID_POINTS // 2], grid[-1])
    store = db.table("R").updates_for("A1")
    store.stage_inserts(rng.integers(*upper, size=50))
    values = bench_column.values
    positions = np.flatnonzero(values >= upper[0])[:25]
    store.stage_deletes(positions, values[positions])
    return session, grid, rng


def _grid_reads(grid, first: int, last: int) -> list[RangeQuery]:
    """``READS`` eight-step grid ranges inside ``[first, last]``."""
    starts = np.linspace(first, last - 8, READS).astype(int).tolist()
    return [RangeQuery(REF, grid[i], grid[i + 8]) for i in starts]


def _answer(session, queries) -> int:
    run_query = session.run_query
    return sum(run_query(query).count for query in queries)


@pytest.mark.benchmark(group="select")
def test_bench_select_both_pivots(benchmark, converged):
    session, grid, _ = converged
    queries = _grid_reads(grid, 0, GRID_POINTS // 2)
    cracks = session.strategy.indexes[REF].crack_count
    assert benchmark(_answer, session, queries) > 0
    assert session.strategy.indexes[REF].crack_count == cracks


@pytest.mark.benchmark(group="select")
def test_bench_select_both_pivots_pending_in_range(benchmark, converged):
    session, grid, _ = converged
    queries = _grid_reads(grid, GRID_POINTS // 2, GRID_POINTS)
    store = session.db.table("R").updates_for("A1")
    overlapped = sum(
        len(store.inserts_in_range(q.low, q.high))
        + len(store.deletes_in_range(q.low, q.high))
        > 0
        for q in queries
    )
    assert overlapped > 0.9 * READS
    cracks = session.strategy.indexes[REF].crack_count
    assert benchmark(_answer, session, queries) > 0
    assert session.strategy.indexes[REF].crack_count == cracks


@pytest.mark.benchmark(group="select")
def test_bench_select_one_fresh_bound(benchmark, converged):
    session, grid, rng = converged
    index = session.strategy.indexes[REF]

    def setup():
        starts = rng.integers(0, GRID_POINTS // 2 - 1, size=READS).tolist()
        queries = [
            RangeQuery(REF, grid[i], float(rng.uniform(grid[i], grid[i + 1])))
            for i in starts
        ]
        return (session, queries), {}

    before = index.crack_count
    benchmark.pedantic(_answer, setup=setup, rounds=60)
    assert index.crack_count >= before + 59 * READS
