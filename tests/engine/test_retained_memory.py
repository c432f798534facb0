"""A converged session's memory stays flat.

Once every bound of a workload is a cut, answering a query adds
nothing the kernel must keep: the session report holds running totals,
not one record a query.  Each path a query can take -- ``run_query``,
``run_batch`` windows and the serving front-end's window loop -- is
driven over 20 k converged queries under ``tracemalloc``, and what
those queries left allocated must stay under 16 B a query.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.config import TINY
from repro.engine.query import RangeQuery
from repro.engine.session import make_strategy
from repro.serving import ServingFrontend
from repro.simtime.clock import SimClock
from repro.storage.catalog import ColumnRef
from repro.storage.database import Database
from repro.storage.loader import build_paper_table

QUERIES = 20_000
WINDOW = 32
BOUND_B_PER_QUERY = 16

REF = ColumnRef("R", "A1")
_GRID = np.linspace(0, 1e8, 33).tolist()


@pytest.fixture(scope="module")
def queries() -> list[RangeQuery]:
    """``QUERIES`` ranges over grid bounds only: a column that has
    answered each grid cell once has every bound cut already."""
    rng = np.random.default_rng(7)
    lows = rng.integers(0, len(_GRID) - 1, size=QUERIES)
    widths = rng.integers(1, 4, size=QUERIES)
    top = len(_GRID) - 1
    return [
        RangeQuery(REF, _GRID[low], _GRID[min(low + width, top)])
        for low, width in zip(lows.tolist(), widths.tolist())
    ]


def _converged_db() -> Database:
    db = Database(clock=SimClock(TINY.cost_model()))
    db.add_table(build_paper_table(rows=TINY.rows, columns=1, seed=3))
    return db


def _warm(run, queries: list[RangeQuery]) -> None:
    """Cut every grid bound, then run the workload's first windows
    once so lazily built state exists before measuring."""
    run([RangeQuery(REF, low, high) for low, high in zip(_GRID, _GRID[1:])])
    run(queries[: 4 * WINDOW])


def _retained_per_query(run, queries: list[RangeQuery]) -> float:
    """Bytes still allocated after ``run`` answered ``queries`` in
    windows of ``WINDOW``, per query."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for start in range(0, len(queries), WINDOW):
            run(queries[start : start + WINDOW])
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained / len(queries)


def _sequential(db: Database):
    session = db.session("holistic")

    def run(window: list[RangeQuery]) -> None:
        for query in window:
            session.run_query(query)

    return run


def _batched(db: Database):
    return db.session("holistic").run_batch


def _served(db: Database):
    frontend = ServingFrontend(db, make_strategy("holistic", db))
    frontend.add_client("c")

    def run(window: list[RangeQuery]) -> None:
        frontend.submit("c", window)
        frontend.run()

    return run


@pytest.mark.parametrize("path", [_sequential, _batched, _served])
def test_converged_queries_retain_no_memory(path, queries):
    run = path(_converged_db())
    _warm(run, queries)
    retained = _retained_per_query(run, queries)
    assert retained < BOUND_B_PER_QUERY, (
        f"{path.__name__}: {retained:.1f} B retained a query"
    )
