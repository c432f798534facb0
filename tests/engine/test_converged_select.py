"""The converged select: a range whose two bounds are already cuts.

It touches no data, so its cost is the Python path alone.  A
structural guard counts that path's calls, and a wall-clock session
must tally what a virtual-clock one prices.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import TINY
from repro.engine.query import RangeQuery
from repro.engine.session import make_strategy
from repro.serving import ServingFrontend
from repro.simtime.clock import SimClock, WallClock
from repro.storage.catalog import ColumnRef
from repro.storage.database import Database
from repro.storage.loader import build_paper_table
from repro.storage.views import PendingOverlay
from tests.callcount import count_calls

#: Python-level calls of one converged ``Session.run_query`` per
#: strategy, the column's delta store empty.  The holistic kernel adds
#: its monitor and ranking bookkeeping to plain cracking's path.
CONVERGED_CALLS = {"holistic": 19, "adaptive": 17}

#: Python-level calls of one converged holistic ``Session.run_batch``
#: with pending rows in every range, by (reads, columns): the window
#: plans each column once and replays each read.
WINDOW_CALLS = {(1, 1): 35, (4, 2): 72}

#: Python-level calls of one converged served window on the holistic
#: kernel, by (reads, clients): the front-end deals the window to the
#: clients' lanes in one pass, and each lane replays its share through
#: the session window loop.
SERVED_CALLS = {(32, 4): 297, (4, 1): 49}


def _grid(columns=("A1", "A2"), points=24) -> list[RangeQuery]:
    """Grid ranges over the paper domain; a fresh ``ColumnRef`` per
    query, as a caller builds them."""
    lows = np.linspace(0, 9e7, points).tolist()
    return [
        RangeQuery(ColumnRef("R", column), low, low + 5e5)
        for column in columns
        for low in lows
    ]


def _session(clock, strategy="holistic"):
    db = Database(clock=clock)
    db.add_table(build_paper_table(rows=10_000, columns=2, seed=5))
    return db.session(strategy)


@pytest.mark.parametrize("strategy", ["holistic", "adaptive"])
def test_converged_select_cost_is_bounded(strategy):
    """A structural cost guard: once every grid bound is a cut, a
    select is two dictionary hits in the piece map's ``cut_of``, two
    priced probes and the session's bookkeeping -- no binary search,
    no charge object, no catalog walk."""
    session = _session(SimClock(TINY.cost_model()), strategy)
    queries = _grid()
    for query in queries:
        session.run_query(query)
    index = session.strategy.index_for(ColumnRef("R", "A1"))
    cracks = index.crack_count
    counts = [
        count_calls(session.run_query, query)[0] for query in _grid()
    ]
    assert index.crack_count == cracks
    assert max(counts) <= CONVERGED_CALLS[strategy]
    assert len(set(counts)) == 1


def test_converged_window_cost_is_bounded():
    """A structural cost guard for a converged window with pending
    rows in range: one read on one column, and four reads over two
    columns.  The window answers and prices its reads exactly as
    ``run_query`` does, one read at a time."""
    batched, sequential = (
        _session(SimClock(TINY.cost_model())) for _ in range(2)
    )
    grid = _grid()
    for session in (batched, sequential):
        for query in grid:
            session.run_query(query)
        for column in ("A1", "A2"):
            session.db.table("R").updates_for(column).stage_inserts(
                [int(query.low) + 1 for query in grid]
            )
    half = len(grid) // 2
    windows = {
        (1, 1): [grid[3]],
        (4, 2): [grid[5], grid[half + 5], grid[6], grid[half + 6]],
    }
    for shape, window in windows.items():
        for _ in range(2):
            # The first pass warms the replay's shadow map; the second
            # is counted.
            results = batched.run_batch(window)
            expected = [sequential.run_query(query) for query in window]
            assert [r.count for r in results] == [
                r.count for r in expected
            ]
            assert [sorted(r.values().tolist()) for r in results] == [
                sorted(r.values().tolist()) for r in expected
            ]
            assert all(
                isinstance(r, PendingOverlay) for r in results
            ), "every range holds pending rows"
        calls, _ = count_calls(batched.run_batch, window)
        sequential_now = sequential.clock.now()
        for query in window:
            sequential.run_query(query)
        assert calls <= WINDOW_CALLS[shape], (shape, calls)
        assert batched.clock.now() == sequential.clock.now()
        assert batched.clock.now() > sequential_now
        assert (
            batched.report.total_response_s
            == sequential.report.total_response_s
        )
        assert batched.clock.total_charge == sequential.clock.total_charge


def _share(client: int, clients: int, reads: int) -> list[RangeQuery]:
    """Client ``client``'s share of a converged window: ``reads``
    distinct grid ranges over both columns, disjoint from the other
    clients' shares."""
    grid = _grid()
    return [
        grid[(client + clients * k) * 7 % len(grid)] for k in range(reads)
    ]


@pytest.mark.parametrize("shape", sorted(SERVED_CALLS))
def test_converged_served_window_cost_is_bounded(shape):
    """A structural cost guard for a converged served window of
    ``reads`` reads from ``clients`` clients, every bound already in
    each client's shadow map: each client's reads are answered and
    priced exactly as its own ``run_query`` calls, and the window makes
    no more calls than those clients' shares run as session windows."""
    reads, clients = shape
    db = Database(clock=SimClock(TINY.cost_model()))
    db.add_table(build_paper_table(rows=10_000, columns=2, seed=5))
    frontend = ServingFrontend(db, make_strategy("holistic", db))
    sequential = [
        _session(SimClock(TINY.cost_model())) for _ in range(clients)
    ]
    windowed = [
        _session(SimClock(TINY.cost_model())) for _ in range(clients)
    ]
    # Twice over the grid: the second pass replays only converged
    # reads, so every price and view a converged read needs is cached.
    warm = _grid() + _grid()
    for client in range(clients):
        frontend.add_client(f"c{client}", warm)
        for session in (sequential[client], windowed[client]):
            for query in warm:
                session.run_query(query)
    frontend.run()
    shares = [_share(client, clients, reads // clients) for client in range(clients)]
    for client, share in enumerate(shares):
        frontend.submit(f"c{client}", share)
    entries = frontend.former.next_window()
    assert len(entries) == reads
    calls, results = count_calls(frontend.serve_window, entries)
    window_calls = 0
    for client, share in enumerate(shares):
        lane = frontend.lanes[f"c{client}"]
        session = sequential[client]
        expected = [session.run_query(query) for query in share]
        served = [
            result
            for entry, result in zip(entries, results)
            if entry.client == f"c{client}"
        ]
        assert [r.count for r in served] == [r.count for r in expected]
        assert [sorted(r.values().tolist()) for r in served] == [
            sorted(r.values().tolist()) for r in expected
        ]
        assert lane.clock.now() == session.clock.now()
        assert lane.clock.total_charge == session.clock.total_charge
        assert (
            lane.report.total_response_s == session.report.total_response_s
        )
        window_calls += count_calls(windowed[client].run_batch, share)[0]
    assert calls <= SERVED_CALLS[shape], (shape, calls)
    assert calls <= window_calls, (calls, window_calls)


def test_wall_clock_session_tallies_what_a_sim_clock_prices():
    """``WallClock.charge_query``/``charge_probes`` only count, like
    its ``charge``; the counters end equal to a ``SimClock``'s over the
    same cold-then-converged stream."""
    sim = _session(SimClock(TINY.cost_model()))
    wall = _session(WallClock())
    for session in (sim, wall):
        for _ in range(3):
            for query in _grid():
                session.run_query(query)
    assert sim.clock.total_charge.queries == 3 * len(_grid())
    assert wall.clock.total_charge == sim.clock.total_charge


def _converged():
    """A holistic session whose ``R.A1`` grid bounds are all cuts, that
    grid and the column's index."""
    session = _session(SimClock(TINY.cost_model()))
    queries = _grid(("A1",))
    for query in queries:
        session.run_query(query)
    return session, queries, session.strategy.index_for(ColumnRef("R", "A1"))


def test_converged_select_lays_pending_rows_over_without_a_crack():
    """Pending inserts and deletes inside a converged range change the
    answer, not the index: both bounds are still cuts."""
    session, queries, index = _converged()
    values = session.db.column("R", "A1").values
    store = session.db.table("R").updates_for("A1")
    inserts = np.array([int(query.low) + 1 for query in queries])
    store.stage_inserts(inserts)
    positions = np.array([
        np.flatnonzero((values >= query.low) & (values < query.high))[0]
        for query in queries[::2]
    ])
    deleted = values[positions]
    store.stage_deletes(positions, deleted)
    cracks = index.crack_count
    for query in queries:
        expected = sum(
            sign * int(np.count_nonzero(
                (array >= query.low) & (array < query.high)
            ))
            for sign, array in ((1, values), (1, inserts), (-1, deleted))
        )
        assert session.run_query(query).count == expected
    assert index.crack_count == cracks


def test_one_fresh_bound_costs_one_cut():
    """A converged range whose high bound moves inside its piece cuts
    that piece once and nothing else."""
    session, queries, index = _converged()
    rng = np.random.default_rng(31)
    for query in queries:
        cracks = index.crack_count
        fresh = float(rng.uniform(query.low + 1, query.high - 1))
        session.run_query(RangeQuery(query.ref, query.low, fresh))
        assert index.crack_count == cracks + 1
