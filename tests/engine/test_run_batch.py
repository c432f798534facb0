"""Session windows: ``run_batch`` == sequential ``run_query``.

A session window resolves its columns, then answers each read as
``run_query`` does.  Its contract is *bit-for-bit* equivalence: result
multisets, per-query response times, cumulative clock totals and tape
counts must be exactly what one-at-a-time execution produces, for
every strategy, window size, pending update mix and clock.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.query import RangeQuery
from repro.simtime.clock import SimClock, WallClock
from repro.storage.catalog import ColumnRef
from repro.storage.database import Database
from repro.storage.loader import build_paper_table
from tests.conftest import query_records, recorded

SPAN = 100_000_000


def _database(seed: int, rows: int = 3000, columns: int = 2) -> Database:
    db = Database(clock=SimClock())
    db.add_table(build_paper_table(rows=rows, columns=columns, seed=seed))
    return db


def _stage_pending(db: Database, seed: int) -> None:
    table = db.table("R")
    rng = np.random.default_rng(seed)
    for column in ("A1", "A2"):
        pending = table.updates_for(column)
        pending.stage_inserts(rng.integers(0, SPAN, size=40))
        values = db.column("R", column).values
        positions = rng.integers(0, len(values), size=25)
        pending.stage_deletes(positions, values[positions])


def _workload(seed: int, count: int, columns: int = 2) -> list[RangeQuery]:
    """Mixed repeated (grid) and fresh (uniform) predicates."""
    rng = np.random.default_rng(seed)
    grid = np.linspace(0, SPAN * 0.99, 24)
    queries = []
    for _ in range(count):
        ref = ColumnRef("R", f"A{int(rng.integers(1, columns + 1))}")
        if rng.random() < 0.5:
            low = float(grid[int(rng.integers(0, len(grid)))])
        else:
            low = float(rng.uniform(0, SPAN * 0.98))
        width = float(rng.uniform(0, SPAN * 0.02))
        queries.append(RangeQuery(ref, low, low + width))
    return queries


def _stage_writes(db: Database, rng: np.random.Generator) -> None:
    """One ``mixed_rw``-style write batch on a random column."""
    column = f"A{int(rng.integers(1, 3))}"
    pending = db.table("R").updates_for(column)
    pending.stage_inserts(rng.integers(0, SPAN, size=16))
    values = db.column("R", column).values
    positions = rng.choice(len(values), size=4, replace=False)
    pending.stage_deletes(positions, values[positions])


def _run(
    strategy: str,
    window: int,
    data_seed: int,
    pending: bool = False,
    count: int = 40,
    writes: int = 0,
    passes: int = 1,
    **options,
):
    """``passes`` times the same ``count`` queries, in windows of
    ``window`` (``1``: one by one), with a write batch staged after
    every ``writes`` queries."""
    db = _database(data_seed)
    if pending:
        _stage_pending(db, data_seed + 7)
    session = recorded(db.session(strategy, **options))
    queries = _workload(data_seed, count) * passes
    rng = np.random.default_rng(data_seed + 11)
    results = []
    for start in range(0, len(queries), window):
        chunk = queries[start : start + window]
        if window == 1:
            results.append(session.run_query(chunk[0]))
        else:
            results.extend(session.run_batch(chunk))
        if writes and (start + len(chunk)) % writes == 0:
            _stage_writes(db, rng)
    return session, results


def _fingerprint(session, results) -> tuple:
    report = session.report
    records = query_records(report)
    parts = [
        tuple(repr(r.response_s) for r in records),
        tuple(repr(r.finished_at) for r in records),
        tuple(r.result_count for r in records),
        (
            report.query_count,
            repr(report.total_response_s),
            repr(report.total_wait_s),
            int(report.result_rows),
        ),
        repr(float(session.clock.now())),
        repr(session.clock.total_charge),
        tuple(
            tuple(np.sort(result.values()).tolist()) for result in results
        ),
    ]
    strategy = session.strategy
    indexes = getattr(strategy, "indexes", None)
    if indexes:
        for ref in sorted(indexes, key=repr):
            index = indexes[ref]
            parts.append(tuple(index.piece_map.cuts()))
            parts.append(tuple(index.piece_map.pivots()))
            parts.append(repr(index.tape.export_state()))
            index.check_invariants()
    return tuple(parts)


STRATEGIES = [
    ("scan", {}),
    ("adaptive", {}),
    ("adaptive", {"variant": "ddr", "seed": 2}),
    ("holistic", {"seed": 5}),
]


@pytest.mark.parametrize("strategy,options", STRATEGIES)
@pytest.mark.parametrize("pending", [False, True])
@pytest.mark.parametrize("window", [2, 7, 40])
def test_run_batch_matches_sequential(strategy, options, pending, window):
    base_session, base_results = _run(strategy, 1, 31, pending, **options)
    batch_session, batch_results = _run(
        strategy, window, 31, pending, **options
    )
    assert _fingerprint(batch_session, batch_results) == _fingerprint(
        base_session, base_results
    )


def _run_mixed_rw(strategy: str, window: int, **options):
    """The ``mixed_rw`` shape: converged indexes, reads in windows of
    at most 8 with writes staged between them, and windows after an
    ``ensure_cut``, after ``idle()`` and after a widening
    ``ensure_values_fit``.  ``window == 1`` runs every read alone."""
    db = _database(41)
    session = recorded(db.session(strategy, **options))
    refs = [ColumnRef("R", "A1"), ColumnRef("R", "A2")]
    grid = np.linspace(0, SPAN * 0.99, 17).tolist()
    for ref in refs:
        for low, high in zip(grid, grid[1:]):
            session.run_query(RangeQuery(ref, low, high))
    rng = np.random.default_rng(41)
    results = []

    def reads(count: int, extra=()) -> None:
        queries = list(extra)
        while len(queries) < count:
            i, j = sorted(rng.choice(len(grid), size=2, replace=False))
            ref = refs[int(rng.integers(0, 2))]
            queries.append(RangeQuery(ref, grid[i], grid[j]))
        if window == 1:
            results.extend(session.run_query(query) for query in queries)
        else:
            results.extend(session.run_batch(queries))

    for count in (8, 3, 1, 5):
        reads(count)
        _stage_writes(db, rng)
    index = session.strategy.indexes[refs[0]]
    cut = float(grid[3] + 12_345)
    index.ensure_cut(cut)
    reads(4, [RangeQuery(refs[0], grid[2], cut)])
    _stage_writes(db, rng)
    session.idle(actions=6)
    reads(8, [RangeQuery(refs[1], grid[3] + 777, grid[10])])  # one fresh
    index.ensure_values_fit(np.array([2**40]))
    assert index.values.dtype == np.int64
    reads(6)
    _stage_writes(db, rng)
    duplicate = RangeQuery(refs[1], grid[4], grid[9])
    reads(
        8,
        [
            RangeQuery(refs[0], grid[5], 2.0**70),  # a top
            RangeQuery(refs[1], grid[1], float("inf")),
            duplicate,
            duplicate,
            RangeQuery(refs[0], grid[6], grid[6]),  # empty
            RangeQuery(refs[1], grid[7], float("nan")),
            RangeQuery(refs[0], grid[8] + 0.2, grid[8] + 0.7),  # no int
        ],
    )
    return session, results


@pytest.mark.parametrize(
    "strategy,options",
    [
        ("adaptive", {}),
        ("adaptive", {"variant": "ddr", "seed": 2}),
        ("holistic", {"seed": 5, "cache_target_elements": 16}),
    ],
)
def test_mixed_rw_windows_match_sequential(strategy, options):
    base_session, base_results = _run_mixed_rw(strategy, 1, **options)
    batch_session, batch_results = _run_mixed_rw(strategy, 8, **options)
    assert _fingerprint(batch_session, batch_results) == _fingerprint(
        base_session, base_results
    )


@pytest.mark.parametrize(
    "strategy,options",
    [
        ("adaptive", {"variant": "mdd1r", "seed": 2}),
        ("adaptive", {"variant": "ddr", "seed": 2}),
        ("online", {}),
        ("offline", {}),
    ],
)
def test_fallback_strategies_match_sequential(strategy, options):
    """Stochastic cracking, online and offline windows are the
    sequential loop too."""
    base_session, base_results = _run(strategy, 1, 13, False, **options)
    batch_session, batch_results = _run(strategy, 16, 13, False, **options)
    assert [r.count for r in batch_results] == [
        r.count for r in base_results
    ]
    assert repr(batch_session.clock.now()) == repr(
        base_session.clock.now()
    )
    assert [
        repr(r.response_s) for r in query_records(batch_session.report)
    ] == [repr(r.response_s) for r in query_records(base_session.report)]


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    window=st.integers(2, 33),
    strategy=st.sampled_from(["adaptive", "holistic", "scan"]),
    pending=st.booleans(),
    writes=st.booleans(),
)
def test_property_batch_equals_sequential(
    seed, window, strategy, pending, writes
):
    """Also with writes staged between windows: the second pass's
    converged windows read against a changing delta store."""
    options = {"seed": 3} if strategy == "holistic" else {}
    options.update(count=30, passes=2, writes=window if writes else 0)
    base_session, base_results = _run(strategy, 1, seed, pending, **options)
    batch_session, batch_results = _run(
        strategy, window, seed, pending, **options
    )
    assert _fingerprint(batch_session, batch_results) == _fingerprint(
        base_session, base_results
    )


def test_holistic_monitor_and_ranking_state_match():
    base_session, _ = _run("holistic", 1, 77, count=50, seed=1)
    batch_session, _ = _run("holistic", 8, 77, count=50, seed=1)
    base = base_session.strategy
    batch = batch_session.strategy
    assert batch.monitor.export_state() == base.monitor.export_state()
    assert batch.ranking.export_state() == base.ranking.export_state()


def test_wait_debt_charged_to_first_window_query():
    """A blocking idle overrun becomes waiting time on the next query
    even when that query arrives inside a batch."""

    def run(window: int):
        db = _database(3)
        session = recorded(
            db.session("offline", build_policy="always_build")
        )
        from repro.offline.whatif import WorkloadStatement

        session.hint_workload(
            [WorkloadStatement(ColumnRef("R", "A1"), 0.0, SPAN, 5.0)]
        )
        session.idle(seconds=1e-9)  # build overruns the tiny window
        queries = _workload(3, 6)
        if window == 1:
            for query in queries:
                session.run_query(query)
        else:
            session.run_batch(queries)
        return session.report

    base = run(1)
    batched = run(6)
    assert query_records(batched)[0].wait_s == query_records(base)[0].wait_s
    assert [repr(r.response_s) for r in query_records(batched)] == [
        repr(r.response_s) for r in query_records(base)
    ]

    # A cracking window also charges pending wait debt to its first
    # query only.
    def run_adaptive(window: int):
        db = _database(3)
        session = recorded(db.session("adaptive"))
        session._pending_wait_s = 0.25
        queries = _workload(3, 6)
        if window == 1:
            for query in queries:
                session.run_query(query)
        else:
            session.run_batch(queries)
        return session.report

    base = run_adaptive(1)
    batched = run_adaptive(6)
    assert query_records(batched)[0].wait_s == 0.25
    assert all(r.wait_s == 0.0 for r in query_records(batched)[1:])
    assert [repr(r.response_s) for r in query_records(batched)] == [
        repr(r.response_s) for r in query_records(base)
    ]


def test_empty_batch_is_a_noop():
    db = _database(1)
    session = db.session("adaptive")
    assert session.run_batch([]) == []
    assert session.report.query_count == 0
    assert session.clock.now() == 0.0


def test_run_batch_on_wall_clock_counts_charges():
    """On a wall clock a window tallies the same work counters as
    sequential execution."""
    queries = _workload(9, 12)

    def run(window: int):
        db = Database(clock=WallClock())
        db.add_table(build_paper_table(rows=2000, columns=2, seed=9))
        session = recorded(db.session("adaptive"))
        if window == 1:
            for query in queries:
                session.run_query(query)
        else:
            session.run_batch(queries)
        return session

    base = run(1)
    batched = run(12)
    assert batched.clock.total_charge == base.clock.total_charge
    assert [r.result_count for r in query_records(batched.report)] == [
        r.result_count for r in query_records(base.report)
    ]


def test_run_batch_in_a_parallel_phase_runs_sequentially():
    """Inside a parallel phase a SimClock charges per-thread lanes; a
    window charges them as sequential ``run_query`` calls do."""
    queries = _workload(9, 12)

    def run(window: int):
        db = _database(9)
        session = recorded(db.session("adaptive"))
        db.clock.begin_parallel()
        if window == 1:
            for query in queries:
                session.run_query(query)
        else:
            session.run_batch(queries)
        now = db.clock.now()
        db.clock.end_parallel()
        return session, now

    base, base_now = run(1)
    batched, batched_now = run(12)
    assert repr(batched_now) == repr(base_now)
    assert batched.clock.total_charge == base.clock.total_charge
    assert [repr(r.response_s) for r in query_records(batched.report)] == [
        repr(r.response_s) for r in query_records(base.report)
    ]


@pytest.mark.parametrize("clock", ["wall", "parallel"])
def test_run_batch_answers_and_charges_like_run_query(clock):
    """Holistic windows over columns with pending rows, on a
    ``WallClock`` and on a ``SimClock`` inside a parallel phase, give
    the answers, work counters, piece maps, tape counts and monitor
    counts of the same reads through ``run_query`` -- and, on the
    ``SimClock``, the same phase time."""
    queries = _workload(15, 24) * 2

    def run(window: int):
        db = Database(clock=WallClock() if clock == "wall" else SimClock())
        db.add_table(build_paper_table(rows=3000, columns=2, seed=15))
        _stage_pending(db, 22)
        session = db.session("holistic", seed=5)
        if clock == "parallel":
            db.clock.begin_parallel()
        results = []
        for start in range(0, len(queries), window):
            chunk = queries[start : start + window]
            if window == 1:
                results.append(session.run_query(chunk[0]))
            else:
                results.extend(session.run_batch(chunk))
        elapsed = None
        if clock == "parallel":
            elapsed = db.clock.end_parallel().elapsed_s
        kernel = session.strategy
        return (
            [sorted(result.values().tolist()) for result in results],
            db.clock.total_charge,
            session.report.query_count,
            session.report.result_rows,
            {
                ref: (
                    index.piece_map.pivots(),
                    index.piece_map.cuts(),
                    index.tape.export_state(),
                )
                for ref, index in kernel.indexes.items()
            },
            kernel.monitor.export_state(),
            elapsed,
        )

    assert run(8) == run(1)


def test_interleaved_batches_and_sequential_queries():
    """Windows and single queries can alternate freely on one session."""
    db = _database(21)
    session = recorded(db.session("holistic", seed=2))
    queries = _workload(21, 30)
    session.run_batch(queries[:10])
    for query in queries[10:15]:
        session.run_query(query)
    session.idle(actions=5)
    session.run_batch(queries[15:])

    base_db = _database(21)
    base = recorded(base_db.session("holistic", seed=2))
    for query in queries[:15]:
        base.run_query(query)
    base.idle(actions=5)
    for query in queries[15:]:
        base.run_query(query)

    assert repr(session.clock.now()) == repr(base.clock.now())
    assert [repr(r.response_s) for r in query_records(session.report)] == [
        repr(r.response_s) for r in query_records(base.report)
    ]


def test_failed_batch_setup_leaves_no_silent_cracks():
    """An unknown column anywhere in the window must fail before any
    physical cracking, keeping earlier columns' indexes untouched."""
    from repro.errors import SchemaError

    db = _database(3)
    session = db.session("adaptive")
    good = RangeQuery(ColumnRef("R", "A1"), 1e6, 2e6)
    bad = RangeQuery(ColumnRef("R", "NOPE"), 1e6, 2e6)
    with pytest.raises(Exception):
        session.run_batch([good, bad])
    assert session.strategy.indexes == {}
    assert session.clock.now() == 0.0
    assert session.report.query_count == 0
    # The session stays fully usable and bit-identical afterwards.
    session.run_batch([good])
    reference = _database(3).session("adaptive")
    reference.run_query(good)
    assert repr(session.clock.now()) == repr(reference.clock.now())


def _converged(strategy: str, rows: int = 3000, **options):
    """A session whose indexes have every ``_GRID`` bound cut already,
    each of the two columns queried once per grid cell."""
    db = _database(17, rows=rows)
    session = recorded(db.session(strategy, **options))
    for column in ("A1", "A2"):
        for low, high in zip(_GRID, _GRID[1:]):
            session.select("R", column, low, high)
    return session


_GRID = np.linspace(0, SPAN * 0.99, 9).tolist()


def _grid_window(rng, count: int) -> list[RangeQuery]:
    queries = []
    for _ in range(count):
        i, j = sorted(rng.choice(len(_GRID), size=2, replace=False))
        ref = ColumnRef("R", f"A{int(rng.integers(1, 3))}")
        queries.append(RangeQuery(ref, _GRID[i], _GRID[j]))
    return queries


@pytest.mark.parametrize(
    "strategy,options", [("adaptive", {}), ("holistic", {"seed": 5})]
)
def test_replay_raising_mid_window_settles_like_sequential(
    monkeypatch, strategy, options
):
    """A window whose third read's select raises leaves the clock,
    records, cumulative total, monitor and ranking exactly as a
    sequential session failing at the same query -- and so does the
    next query.  The failure is injected once the select is priced."""
    from repro.cracking.index import CrackerIndex

    window = _grid_window(np.random.default_rng(29), 4)
    session = _converged(strategy, rows=50_000, **options)
    base = _converged(strategy, rows=50_000, **options)

    def fail_third(cls, name):
        calls = []
        method = getattr(cls, name)

        def failing(self, *args):
            calls.append(args)
            result = method(self, *args)
            if len(calls) == 3:
                raise RuntimeError("injected select failure")
            return result

        monkeypatch.setattr(cls, name, failing)

    fail_third(CrackerIndex, "select_keys")
    with pytest.raises(RuntimeError):
        session.run_batch(window)
    monkeypatch.undo()
    fail_third(CrackerIndex, "select_keys")
    with pytest.raises(RuntimeError):
        for query in window:
            base.run_query(query)
    monkeypatch.undo()
    assert session.report.query_count == base.report.query_count
    assert session.report.result_rows == base.report.result_rows
    after = _grid_window(np.random.default_rng(31), 1)[0]
    for subject in (session, base):
        subject.run_query(after)
    assert repr(session.clock.now()) == repr(base.clock.now())
    assert session.clock.total_charge == base.clock.total_charge
    records = [
        (repr(r.finished_at), repr(r.response_s), r.result_count)
        for r in query_records(session.report)
    ]
    assert records == [
        (repr(r.finished_at), repr(r.response_s), r.result_count)
        for r in query_records(base.report)
    ]
    assert repr(session.report.total_response_s) == repr(
        base.report.total_response_s
    )
    if strategy == "holistic":
        kernel, reference = session.strategy, base.strategy
        assert kernel.monitor.export_state() == (
            reference.monitor.export_state()
        )
        assert kernel.ranking.export_state() == (
            reference.ranking.export_state()
        )
