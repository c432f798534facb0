"""The converged select: a range whose two bounds are already cuts.

It touches no data, so its cost is the Python path alone.  A
structural guard counts that path's calls, and a wall-clock session
must tally what a virtual-clock one prices.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

from repro.config import TINY
from repro.cracking.concurrency import LatchedCrackerAccess
from repro.cracking.index import CrackerIndex
from repro.engine.query import RangeQuery
from repro.engine.session import make_strategy
from repro.persist import SnapshotManager, restore_snapshot
from repro.serving import ServingFrontend
from repro.simtime.clock import SimClock, WallClock
from repro.storage.catalog import ColumnRef
from repro.storage.database import Database
from repro.storage.loader import build_paper_table
from repro.storage.views import PendingOverlay
from tests.callcount import count_calls

#: Python-level calls of one converged ``Session.run_query`` per
#: strategy, the column's delta store empty, on a range that was read
#: converged before.  A range's first converged read makes one call
#: more: it files the range's view with the index.  The holistic
#: kernel adds its monitor's count to plain cracking's path.
CONVERGED_CALLS = {"holistic": 12, "adaptive": 11}

#: Python-level calls of one converged holistic ``Session.run_query``
#: by where the column's pending rows lie, the range read converged
#: before: the probe that finds none in range is the same one call as
#: an empty store's; rows in range add the overlay and its charge.
PENDING_CALLS = {"outside": 12, "inside": 14}

#: Python-level calls of one ``Session.run_query`` per strategy whose
#: two fresh bounds fall in one piece of a cracked column: one
#: crack-in-three, priced by one clock event and counted once on the
#: tape.
FRESH_CALLS = {"holistic": 27, "adaptive": 26}

#: Python-level calls of one ``Session.run_query`` per strategy whose
#: two fresh bounds fall in two different pieces: both bounds located
#: in one call, the column's copy checked once, two cracks, each
#: priced and logged on its own.
TWO_PIECE_CALLS = {"holistic": 34, "adaptive": 33}

#: Python-level calls of one idle action of the ``ranked`` policy on an
#: 8-column table whose columns were all queried: the ranking scores
#: every column, the tuner cracks the best one once.
RANKED_IDLE_CALLS = 89

#: The same for the ``round_robin`` policy, which takes the next
#: column without scoring any, and for ``weighted_random``, which
#: draws a column by its weight.
ROUND_ROBIN_IDLE_CALLS = 54
WEIGHTED_RANDOM_IDLE_CALLS = 107

#: Python-level calls of the first ``Session.run_query`` on a column,
#: by row count: the index is built (the column copied, narrowed to
#: int32) and cracked at both bounds.
FIRST_TOUCH_CALLS = {10_000: 55, 1_000_000: 66}

#: Python-level calls of one converged holistic ``Session.run_batch``
#: with pending rows in every range, by (reads, columns): the window
#: resolves its columns and answers each read as ``run_query`` does.
WINDOW_CALLS = {(1, 1): 16, (4, 2): 58}

#: Python-level calls of one converged served window on the holistic
#: kernel, by (reads, clients): the front-end deals the window to the
#: clients' lanes in one pass, and each lane replays its share through
#: the lanes' window loop, ``Session.run_window``, on its own clock.
SERVED_CALLS = {(32, 4): 200, (4, 1): 33, (64, 8): 388}


#: Python-level calls of one 16-row write batch on a column whose
#: delta store holds 10^4 pending rows of each kind, and of a 2-column
#: ``Table.insert_rows`` of 16 rows.  A batch is coerced, sorted and
#: spliced into its value store once; a delete also coerces its
#: positions, checks its rows against the base column, then against
#: the staged-row set one row at a time, however many repeat.
#: ``insert_rows`` coerces every column before any stages.
WRITE_CALLS = {"stage_inserts": 5, "stage_deletes": 9, "insert_rows": 13}

#: Python-level calls of one tuning worker batch, whole: a 4-pivot
#: ``LatchedCrackerAccess.crack_value`` over 3 pieces of a materialised
#: 10^5-row index, then the window thread's pricing of its record.
#: Under the index's lock one vectorised locate drops the degenerate
#: pivots and one pass cuts the rest; ``price_pass`` charges and logs
#: it.
WORKER_BATCH_CALLS = 95

#: Calls into ``repro`` of one ``SnapshotManager.checkpoint`` of a
#: converged 2-column holistic database after one more crack on
#: ``R.A1``, the generation before it published by the same manager,
#: and of the ``restore_snapshot`` of what it published.  The rest of
#: their calls (``json``, ``pathlib``, ``numpy.save``/``load``) vary
#: with the Python and numpy versions, so they are not budgeted.
CHECKPOINT_CALLS = 89
RESTORE_CALLS = 645

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
    # The first pass cracks, the second reads each range converged
    # once; the third is counted.
    for _ in range(2):
        for query in _grid():
            session.run_query(query)
    index = session.strategy.index_for(ColumnRef("R", "A1"))
    cracks = index.crack_count
    counts = [
        count_calls(session.run_query, query)[0] for query in _grid()
    ]
    assert index.crack_count == cracks
    assert len(set(counts)) == 1
    assert counts[0] <= CONVERGED_CALLS[strategy], repr(counts[0])


@pytest.mark.parametrize("strategy", ["holistic", "adaptive"])
def test_fresh_bound_select_cost_is_bounded(strategy):
    """A structural cost guard for the cracking read: both bounds of a
    range inside one piece cut it in one crack-in-three pass."""
    session = _session(SimClock(TINY.cost_model()), strategy)
    for query in _grid():
        session.run_query(query)
    index = session.strategy.index_for(ColumnRef("R", "A1"))
    values = session.db.column("R", "A1").values
    counts = []
    for query in _grid(("A1",)):
        inner = RangeQuery(query.ref, query.low + 1e5, query.high - 1e5)
        cracks = index.crack_count
        calls, result = count_calls(session.run_query, inner)
        assert index.crack_count == cracks + 2
        assert result.count == np.count_nonzero(
            (values >= inner.low) & (values < inner.high)
        )
        counts.append(calls)
    usual = Counter(counts).most_common(1)[0][0]
    assert usual <= FRESH_CALLS[strategy], repr(usual)
    assert max(counts) <= FRESH_CALLS[strategy], repr(max(counts))


@pytest.mark.parametrize("strategy", ["holistic", "adaptive"])
def test_two_piece_select_cost_is_bounded(strategy):
    """A structural cost guard for the cracking read whose bounds lie
    in two different pieces: each bound is cracked on its own, and the
    high bound's location is shifted one slot, not searched again,
    after the low crack."""
    session = _session(SimClock(TINY.cost_model()), strategy)
    for query in _grid():
        session.run_query(query)
    index = session.strategy.index_for(ColumnRef("R", "A1"))
    values = session.db.column("R", "A1").values
    grid = _grid(("A1",))
    counts = []
    for left, right in zip(grid, grid[1:]):
        query = RangeQuery(left.ref, left.low + 1e5, right.low + 2e5)
        cracks = index.crack_count
        calls, result = count_calls(session.run_query, query)
        assert index.crack_count == cracks + 2
        assert result.count == np.count_nonzero(
            (values >= query.low) & (values < query.high)
        )
        counts.append(calls)
    assert max(counts) <= TWO_PIECE_CALLS[strategy], repr(max(counts))


def _idle_action_calls(policy: str):
    """The calls of eight one-action idle windows of ``policy`` at 8
    columns, each checked to crack once."""
    db = Database(clock=SimClock(TINY.cost_model()))
    db.add_table(build_paper_table(rows=10_000, columns=8, seed=5))
    session = db.session("holistic", policy=policy)
    for query in _grid([f"A{i}" for i in range(1, 9)], points=6):
        session.run_query(query)
    indexes = session.strategy.indexes.values()
    for _ in range(8):
        cracks = sum(index.crack_count for index in indexes)
        calls, record = count_calls(session.idle, None, 1)
        assert record.actions_done == 1
        assert sum(index.crack_count for index in indexes) == cracks + 1
        yield calls


def test_ranked_idle_action_cost_is_bounded():
    """A structural cost guard for one idle action of the ``ranked``
    policy at 8 columns: one ranking pass and one tuning crack."""
    for calls in _idle_action_calls("ranked"):
        assert calls <= RANKED_IDLE_CALLS, repr(calls)


@pytest.mark.parametrize(
    "policy,budget",
    [
        ("round_robin", ROUND_ROBIN_IDLE_CALLS),
        ("weighted_random", WEIGHTED_RANDOM_IDLE_CALLS),
    ],
    ids=["round_robin", "weighted_random"],
)
def test_unranked_idle_action_cost_is_bounded(policy, budget):
    """The same guard for the other two policies: one column choice
    and one tuning crack."""
    for calls in _idle_action_calls(policy):
        assert calls <= budget, repr(calls)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 14: every idle action rescans every column",
)
def test_idle_action_calls_do_not_grow_with_catalog_width():
    """One ``ranked`` idle action at 256 columns makes at most 1.5x
    the calls of one at 8 columns (1,577 against 89 today: the ranking
    scores every column on every action)."""

    def calls(width: int) -> int:
        db = Database(clock=SimClock(TINY.cost_model()))
        db.add_table(build_paper_table(rows=2_000, columns=width, seed=5))
        session = db.session("holistic", policy="ranked")
        for column in range(1, width + 1):
            session.run_query(
                RangeQuery(ColumnRef("R", f"A{column}"), 1e7, 2e7)
            )
        session.idle(actions=3)
        count, record = count_calls(session.idle, None, 1)
        assert record.actions_done == 1
        return count

    narrow, wide = calls(8), calls(256)
    assert wide <= 1.5 * narrow, (narrow, wide)


def test_wall_clock_window_cost_is_within_the_sim_clock_window():
    """A converged ``run_batch`` of 4 reads on one column makes no
    more calls on a ``WallClock`` than on a ``SimClock``: both answer
    each read with the sequential select."""

    def calls(clock) -> int:
        session = _session(clock)
        window = _grid(("A1",))[2:6]
        for _ in range(3):
            session.run_batch(window)
        return count_calls(session.run_batch, window)[0]

    sim, wall = calls(SimClock(TINY.cost_model())), calls(WallClock())
    assert wall <= sim, (sim, wall)


@pytest.mark.parametrize("rows", sorted(FIRST_TOUCH_CALLS))
def test_first_touch_cost_is_bounded(rows):
    """A structural cost guard for a column's first read, which
    builds the column's cracker index and cracks it at both bounds."""
    db = Database(clock=SimClock(TINY.cost_model()))
    db.add_table(build_paper_table(rows=rows, columns=1, seed=5))
    session = db.session("holistic")
    query = RangeQuery(ColumnRef("R", "A1"), 1e7, 2e7)
    calls, result = count_calls(session.run_query, query)
    values = db.column("R", "A1").values
    assert result.count == np.count_nonzero(
        (values >= query.low) & (values < query.high)
    )
    index = session.strategy.index_for(ColumnRef("R", "A1"))
    assert index.crack_count == 2
    assert calls <= FIRST_TOUCH_CALLS[rows], repr(calls)


def test_converged_select_cost_does_not_grow_with_the_delta_store():
    """A converged read costs the same calls whether the column's
    delta store is empty or holds 10^4 pending rows outside the range,
    and a fixed number more with pending rows inside it."""
    session, queries, _ = _converged()
    query = queries[3]
    store = session.db.table("R").updates_for("A1")
    rows = [session.db.column("R", "A1").values]

    def calls() -> int:
        count, result = count_calls(session.run_query, query)
        values = np.concatenate(rows)
        assert result.count == np.count_nonzero(
            (values >= query.low) & (values < query.high)
        )
        return count

    empty = calls()
    assert empty <= CONVERGED_CALLS["holistic"], repr(empty)
    # Half below the range, half at or above its high bound.
    steps = np.arange(5_000) * 3
    rows.append(np.concatenate([
        math.ceil(query.low) - 1 - steps, math.ceil(query.high) + steps
    ]))
    store.stage_inserts(rows[-1])
    outside = calls()
    assert outside == empty, (repr(outside), repr(empty))
    assert outside <= PENDING_CALLS["outside"], repr(outside)
    rows.append(np.array([math.ceil(query.low) + 1]))
    store.stage_inserts(rows[-1])
    inside = calls()
    assert inside <= PENDING_CALLS["inside"], repr(inside)



def test_write_batch_cost_is_bounded():
    """A write batch's calls do not depend on the store it joins: one
    coerce, one sort and one splice, plus a delete's row checks."""
    table = build_paper_table(rows=20_000, columns=2, seed=5)
    store = table.updates_for("A1")
    values = table.column("A1").values
    rng = np.random.default_rng(3)
    store.stage_inserts(rng.integers(1, 10**8, size=10_000))
    store.stage_deletes(np.arange(10_000), values[:10_000])
    batch = rng.integers(1, 10**8, size=16)
    calls, staged = count_calls(store.stage_inserts, batch)
    assert staged == 16
    assert calls <= WRITE_CALLS["stage_inserts"], repr(calls)
    # 14 fresh rows, one staged before and one repeated in the batch.
    rows = np.concatenate([np.arange(10_000, 10_014), [9_999, 10_000]])
    calls, staged = count_calls(store.stage_deletes, rows, values[rows])
    assert staged == 14
    assert calls <= WRITE_CALLS["stage_deletes"], repr(calls)
    calls, staged = count_calls(
        table.insert_rows, {"A1": batch, "A2": batch}
    )
    assert staged == 16
    assert calls <= WRITE_CALLS["insert_rows"], repr(calls)

def test_converged_window_cost_is_bounded():
    """A structural cost guard for a converged window with pending
    rows in range: one read on one column, and four reads over two
    columns.  The window answers each read with ``run_query``, so its
    answers and prices are the loop's by construction."""
    session = _session(SimClock(TINY.cost_model()))
    grid = _grid()
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
        # The first pass files each range's view; the second is
        # counted.
        results = session.run_batch(window)
        assert all(
            isinstance(r, PendingOverlay) for r in results
        ), "every range holds pending rows"
        calls, _ = count_calls(session.run_batch, window)
        assert calls <= WINDOW_CALLS[shape], (shape, calls)


def _share(client: int, clients: int, reads: int) -> list[RangeQuery]:
    """Client ``client``'s share of a converged window: ``reads`` grid
    ranges over both columns, strided across the clients (a range
    repeats once ``reads * clients`` passes the grid's 48)."""
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
    """A ``WallClock`` runs the ``SimClock``'s event methods at zero
    prices: it only counts, and its counters end equal to a
    ``SimClock``'s over the same stream: an idle action after a cold
    read, a cold-then-converged grid with pending rows in range, fresh
    cracks inside converged pieces and a served lane's window.  A
    lane's clock is a ``SimClock`` on either side, so it ends at the
    same reading.  Both sides plan with the default cost model, the
    one a ``WallClock`` database gets."""
    tallies = []
    for clock in (SimClock(), WallClock()):
        db = Database(clock=clock)
        db.add_table(build_paper_table(rows=40_000, columns=2, seed=5))
        session = db.session("holistic")
        db.table("R").updates_for("A1").stage_inserts(
            [int(query.low) + 1 for query in _grid()]
        )
        session.run_query(_grid()[0])
        assert session.idle(actions=1).actions_done == 1
        for _ in range(3):
            for query in _grid():
                session.run_query(query)
        for query in _grid(("A1",)):
            session.run_query(
                RangeQuery(query.ref, query.low + 1e5, query.high - 1e5)
            )
        frontend = ServingFrontend(session.db, session.strategy)
        frontend.add_client("c0", _grid(("A2",))[::3])
        frontend.run()
        lane = frontend.lanes["c0"].clock
        tallies.append(
            (clock.total_charge, lane.total_charge, lane.now(), clock._now)
        )
    sim, wall = tallies
    assert sim[0].queries == 3 * len(_grid()) + len(_grid(("A1",))) + 1
    assert sim[0].cracks > 2 * len(_grid()) and sim[1].queries == 8
    assert wall[:3] == sim[:3]
    assert wall[3] == 0 < sim[3]


def _converged():
    """A holistic session whose ``R.A1`` grid bounds are all cuts and
    whose grid ranges were each read converged once, that grid and the
    column's index."""
    session = _session(SimClock(TINY.cost_model()))
    queries = _grid(("A1",))
    for query in queries + queries:
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


def test_worker_batch_cost_is_bounded():
    """A structural cost guard for one worker batch: a filter, one
    multi-pivot pass and the pricing of its record, nothing per piece
    beyond that."""
    table = build_paper_table(rows=100_000, columns=1, seed=5)
    index = CrackerIndex(table.column("A1"), clock=SimClock(TINY.cost_model()))
    index.ensure_cuts([3e7, 6e7])
    access = LatchedCrackerAccess(index)

    def batch(values):
        record = access.crack_value(values)
        index.price_pass(record)
        return len(record.fresh)

    calls, cut = count_calls(batch, [1e7, 2e7, 4.5e7, 8e7])
    assert cut == 4
    assert index.piece_count == 7
    assert calls <= WORKER_BATCH_CALLS, repr(calls)


def _own(calls) -> int:
    """How many of ``calls`` entered a function of ``repro`` itself."""
    return sum(
        count
        for name, count in calls.functions.items()
        if name.startswith("repro.")
    )


def test_checkpoint_and_restore_cost_is_bounded(tmp_path):
    """A structural cost guard for durability on a converged database:
    the checkpoint after one more crack and the restore of what it
    wrote, each counted in calls into ``repro``."""
    session = _session(SimClock(TINY.cost_model()))
    for _ in range(2):
        for query in _grid():
            session.run_query(query)
    manager = SnapshotManager(
        tmp_path, session.db, strategy=session.strategy, session=session
    )
    manager.checkpoint()
    session.run_query(RangeQuery(ColumnRef("R", "A1"), 1.5e6, 2.5e6))
    calls, result = count_calls(manager.checkpoint)
    assert result.generation == 2
    restore_calls, restored = count_calls(restore_snapshot, tmp_path)
    assert restored.generation == 2
    assert _own(calls) <= CHECKPOINT_CALLS, repr(calls)
    assert _own(restore_calls) <= RESTORE_CALLS, repr(restore_calls)
