"""The converged select: a range whose two bounds are already cuts.

It touches no data, so its cost is the Python path alone.  A
structural guard counts that path's calls, and a wall-clock session
must tally what a virtual-clock one prices.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.config import TINY
from repro.engine.query import RangeQuery
from repro.simtime.clock import SimClock, WallClock
from repro.storage.catalog import ColumnRef
from repro.storage.database import Database
from repro.storage.loader import build_paper_table

#: Python-level calls of one converged ``Session.run_query`` per
#: strategy, the column's delta store empty.  The holistic kernel adds
#: its monitor and ranking bookkeeping to plain cracking's path.
CONVERGED_CALLS = {"holistic": 27, "adaptive": 19}


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


def _calls(function, *args) -> int:
    """Python-level calls made by ``function(*args)``, itself included."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    sys.setprofile(profile)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
    return count


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
    counts = [_calls(session.run_query, query) for query in _grid()]
    assert index.crack_count == cracks
    assert max(counts) <= CONVERGED_CALLS[strategy]
    assert len(set(counts)) == 1


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
