"""Without idle time the holistic kernel is adaptive cracking.

The kernel extends standard adaptive cracking with a monitor, a
ranking and idle-time tuning, and none of them touches a select's
charges or a piece map.  The same stream run through both must
answer, price and crack identically.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TINY
from repro.engine.query import RangeQuery
from repro.simtime.clock import SimClock
from repro.storage.catalog import ColumnRef
from repro.storage.database import Database
from repro.storage.loader import build_paper_table

SPAN = 100_000_000
REFS = (ColumnRef("R", "A1"), ColumnRef("R", "A2"))
#: Shared bounds, so later queries hit pivots earlier ones cut.
GRID = np.linspace(0, SPAN, 17).tolist()

_bound = st.one_of(
    st.sampled_from([*GRID, float("nan")]),
    st.floats(0, SPAN),
)
#: (column, bound, bound, inverted): an inverted query is smuggled
#: past ``RangeQuery``'s check, as a buggy caller could.
_query = st.tuples(
    st.sampled_from(REFS),
    _bound,
    _bound,
    st.sampled_from((False, False, False, True)),
)


def _range_query(ref, a, b, inverted) -> RangeQuery:
    low, high = (a, b) if np.isnan(a) or np.isnan(b) or a <= b else (b, a)
    query = RangeQuery(ref, low, high)
    if inverted and low < high:
        object.__setattr__(query, "low", high)
        object.__setattr__(query, "high", low)
    return query


def _session(strategy: str, seed: int):
    db = Database(clock=SimClock(TINY.cost_model()))
    db.add_table(build_paper_table(rows=2_000, columns=2, seed=seed))
    rng = np.random.default_rng(seed)
    table = db.table("R")
    for ref in REFS:
        pending = table.updates_for(ref.column)
        # Pending rows next to the grid bounds, so ranges hold them.
        pending.stage_inserts(
            rng.choice(GRID, size=12).astype(np.int64) + 1
        )
        values = db.column("R", ref.column).values
        positions = rng.choice(len(values), size=6, replace=False)
        pending.stage_deletes(positions, values[positions])
    return db.session(strategy)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 1_000),
    specs=st.lists(_query, min_size=1, max_size=48),
)
def test_holistic_without_idle_time_is_adaptive(seed, specs):
    sessions = [_session(name, seed) for name in ("holistic", "adaptive")]
    queries = [_range_query(*spec) for spec in specs]
    answers = [
        [
            sorted(session.run_query(query).values().tolist())
            for query in queries
        ]
        for session in sessions
    ]
    holistic, adaptive = sessions
    assert answers[0] == answers[1]
    assert holistic.clock.now() == adaptive.clock.now()
    assert (
        holistic.report.total_response_s == adaptive.report.total_response_s
    )
    for ref in REFS:
        # The kernel also indexes a column on an empty query; an index
        # no query cracked has one piece, like no index.
        maps = []
        for session in sessions:
            index = session.strategy.indexes.get(ref)
            maps.append(
                ([], [], 0)
                if index is None
                else (
                    list(index.piece_map.pivots()),
                    list(index.piece_map.cuts()),
                    index.crack_count,
                )
            )
        assert maps[0] == maps[1]
