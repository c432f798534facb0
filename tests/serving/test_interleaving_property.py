"""Property: serving is interleaving-invariant and solo-identical.

For ANY interleaving of K clients' query streams into cross-session
windows -- any window boundaries, any per-window client mix, as long
as each client's own order is preserved -- every client's results and
response times are bit-identical to that client running alone against
a fresh kernel.  This is the multi-tenant generalization of ISSUE 4's
batch==sequential property, and it is exactly what makes the shared
physical index safe: crack positions are order independent.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.query import RangeQuery
from repro.engine.session import make_strategy
from repro.serving import ServingFrontend
from repro.serving.window import WindowEntry
from repro.simtime.clock import SimClock
from repro.storage.catalog import ColumnRef
from repro.storage.database import Database
from repro.storage.loader import build_paper_table
from tests.conftest import query_records, recorded

ROWS = 1_500
DOMAIN_HIGH = 100_000.0
REFS = [ColumnRef("R", "A1"), ColumnRef("R", "A2")]


def _db(seed: int) -> Database:
    db = Database(clock=SimClock())
    db.add_table(build_paper_table(rows=ROWS, columns=2, seed=seed))
    return db


def _client_queries(rng: np.random.Generator, count: int):
    """A stream mixing repeated (warm) and fresh bounds over 2 columns."""
    grid = np.linspace(1.0, DOMAIN_HIGH * 0.9, 12)
    queries = []
    for _ in range(count):
        ref = REFS[int(rng.integers(0, len(REFS)))]
        if rng.random() < 0.6:
            low = float(rng.choice(grid))
        else:
            low = float(rng.uniform(1.0, DOMAIN_HIGH * 0.9))
        queries.append(RangeQuery(ref, low, low + DOMAIN_HIGH * 0.05))
    return queries


@st.composite
def interleaving_case(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    clients = draw(st.integers(min_value=2, max_value=4))
    counts = [
        draw(st.integers(min_value=1, max_value=14)) for _ in range(clients)
    ]
    # An arbitrary interleaving: a shuffled multiset of client ids,
    # split into windows at arbitrary points.
    order = [i for i, count in enumerate(counts) for _ in range(count)]
    order = draw(st.permutations(order))
    total = len(order)
    breaks = draw(
        st.lists(
            st.integers(min_value=1, max_value=max(1, total - 1)),
            max_size=5,
            unique=True,
        )
    )
    return seed, clients, counts, list(order), sorted(breaks)


@given(interleaving_case(), st.sampled_from(["adaptive", "holistic"]))
@settings(max_examples=25, deadline=None)
def test_any_interleaving_is_solo_identical(case, strategy):
    seed, clients, counts, order, breaks = case
    rng = np.random.default_rng(seed)
    streams = [_client_queries(rng, count) for count in counts]
    # Solo baselines: each client alone on a fresh kernel.
    solo = []
    for stream in streams:
        db = _db(seed)
        session = recorded(db.session(strategy))
        results = [session.run_query(query) for query in stream]
        solo.append(
            (
                [r.response_s for r in query_records(session.report)],
                [sorted(res.values().tolist()) for res in results],
                db.clock.now(),
            )
        )
    # Serving: the drawn interleaving, cut into the drawn windows.
    db = _db(seed)
    frontend = ServingFrontend(db, make_strategy(strategy, db))
    lanes = [
        recorded(frontend.add_client(f"c{i}")) for i in range(clients)
    ]
    cursors = [0] * clients
    entries = []
    for client in order:
        sequence = cursors[client]
        cursors[client] = sequence + 1
        entries.append(
            WindowEntry(f"c{client}", sequence, streams[client][sequence])
        )
    collected: dict[str, list] = {f"c{i}": [] for i in range(clients)}
    previous = 0
    for cut in [*breaks, len(entries)]:
        window = entries[previous:cut]
        previous = cut
        for entry, result in zip(window, frontend.serve_window(window)):
            collected[entry.client].append(result)
    for i, lane in enumerate(lanes):
        responses, values, clock_now = solo[i]
        assert [
            r.response_s for r in query_records(lane.report)
        ] == responses
        assert [
            sorted(res.values().tolist()) for res in collected[f"c{i}"]
        ] == values
        assert lane.clock.now() == clock_now
        # Every lane's shadow keeps its pivot set equal to its pivots:
        # the converged-read step tests membership in the set.
        for replay in lane.replays.values():
            sim = replay.sim
            assert len(sim.pivot_set) == len(sim.pivots)
            assert sim.pivot_set == set(sim.pivots)
