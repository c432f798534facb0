"""Edge-path tests: float columns, error propagation, empty data.

These exercise paths the paper's experiments never touch but a
downstream user will: non-integer columns, missing objects reached
through the session API, and degenerate (empty) tables.
"""

import math

import numpy as np
import pytest

from repro.bench.oracle import ReferenceEngine
from repro.cracking.index import CrackerIndex
from repro.engine.query import RangeQuery
from repro.engine.session import make_strategy
from repro.errors import UnknownColumnError, UnknownTableError
from repro.serving import ServingFrontend
from repro.simtime.charge import CostCharge
from repro.simtime.clock import SimClock
from repro.storage.catalog import ColumnRef
from repro.storage.column import Column
from repro.storage.database import Database
from repro.storage.dtypes import FLOAT64
from repro.storage.loader import build_paper_table
from repro.storage.table import Table
from repro.workload.generators import TraceOp


def _float_column(n: int = 5_000, seed: int = 9) -> Column:
    values = np.random.default_rng(seed).uniform(0.0, 1.0, n)
    return Column("F", values, FLOAT64)


def test_cracking_float_column_is_correct():
    column = _float_column()
    index = CrackerIndex(column, clock=SimClock())
    for low, high in [(0.1, 0.3), (0.25, 0.9), (0.0, 1.0)]:
        view = index.select_range(low, high)
        base = column.values
        expected = int(np.count_nonzero((base >= low) & (base < high)))
        assert view.count == expected
    index.check_invariants()


def test_random_cracks_on_float_column():
    column = _float_column()
    index = CrackerIndex(column, clock=SimClock())
    rng = np.random.default_rng(0)
    for _ in range(20):
        index.random_crack(rng, min_piece_size=1)
    index.check_invariants()
    assert index.piece_count > 10


def test_full_index_on_float_column():
    from repro.offline.fullindex import FullIndex

    column = _float_column()
    index = FullIndex(column, SimClock())
    index.build()
    view = index.select_range(0.4, 0.6)
    base = column.values
    expected = int(np.count_nonzero((base >= 0.4) & (base < 0.6)))
    assert view.count == expected


def test_session_surfaces_unknown_table():
    db = Database()
    session = db.session("scan")
    with pytest.raises(UnknownTableError):
        session.select("missing", "A1", 0, 1)


def test_session_surfaces_unknown_column():
    db = Database()
    table = db.create_table("T")
    table.add_column(Column("A", np.array([1], dtype=np.int64)))
    session = db.session("adaptive")
    with pytest.raises(UnknownColumnError):
        session.select("T", "missing", 0, 1)


def test_holistic_on_empty_table_is_harmless():
    db = Database()
    table = db.create_table("T")
    table.add_column(Column("A", np.array([], dtype=np.int64)))
    session = db.session("holistic")
    record = session.idle(actions=10)
    assert record.actions_done == 0
    result = session.select("T", "A", 0, 100)
    assert result.count == 0


def test_scan_on_empty_table():
    db = Database()
    table = db.create_table("T")
    table.add_column(Column("A", np.array([], dtype=np.int64)))
    session = db.session("scan")
    assert session.select("T", "A", 0, 100).count == 0


def test_single_value_column_cracks_cleanly():
    column = Column("A", np.full(100, 7, dtype=np.int64))
    index = CrackerIndex(column, clock=SimClock())
    assert index.select_range(7, 8).count == 100
    assert index.select_range(0, 7).count == 0
    # Random cracks degenerate (zero value span) but never corrupt.
    assert index.random_crack(np.random.default_rng(0)) is None
    index.check_invariants()


def test_mixed_strategies_share_one_database():
    """Two sessions with different strategies can coexist on one DB."""
    db = Database()
    db.add_table(build_paper_table(rows=2_000, columns=1, seed=1))
    scan = db.session("scan")
    adaptive = db.session("adaptive")
    a = scan.select("R", "A1", 1e6, 5e7)
    b = adaptive.select("R", "A1", 1e6, 5e7)
    assert a.count == b.count
    # The adaptive session's cracking never mutates the base column.
    assert db.column("R", "A1").values.flags.writeable is False


_OPEN_ENDED = [(-math.inf, 3e7), (3e7, math.inf), (-math.inf, math.inf)]


def _run_query(strategy):
    def drive(db, queries):
        session = db.session(strategy)
        results = [session.run_query(q) for q in queries]
        return session.strategy, results, session.clock

    return drive


def _run_batch(strategy):
    def drive(db, queries):
        session = db.session(strategy)
        return session.strategy, session.run_batch(queries), session.clock

    return drive


def _serve_window(strategy):
    def drive(db, queries):
        frontend = ServingFrontend(db, make_strategy(strategy, db))
        frontend.add_client("solo", queries)
        results = frontend.serve_window(frontend.former.next_window())
        return frontend.strategy, results, frontend.lanes["solo"].clock

    return drive


def _open_ended_monitor_state(drive) -> dict:
    """Answer the open-ended shapes through ``drive``, check the rows
    against the reference engine, return the monitor's state."""
    ref = ColumnRef("R", "A1")
    db = Database(clock=SimClock())
    db.add_table(build_paper_table(rows=2_000, columns=1, seed=1))
    reference = ReferenceEngine(db, [ref])
    queries = [RangeQuery(ref, low, high) for low, high in _OPEN_ENDED]
    strategy, results, _ = drive(db, queries)
    for query, result in zip(queries, results):
        assert np.array_equal(
            np.sort(result.values()),
            reference.query(ref, query.low, query.high),
        )
    return strategy.monitor.export_state()


def test_open_ended_ranges_count_alike_on_every_path():
    """Regression: ``-inf // width`` is NaN, so an open-ended range
    raised from ``WorkloadMonitor.record`` under ``run_query`` while
    ``run_batch`` and ``serve_window`` cast the NaN to a bin (numpy
    ``RuntimeWarning``) and counted ``[x, +inf)`` in bin 0.  Every path
    must answer like the reference engine and leave one monitor state.
    """
    sequential = _open_ended_monitor_state(_run_query("holistic"))
    (entry,) = sequential["columns"]
    histogram = entry["histogram"]
    assert histogram[0] == histogram[-1] == 2
    assert max(histogram) == 3  # the bin of 3e7 is in all three ranges
    assert _open_ended_monitor_state(_run_batch("holistic")) == sequential
    assert _open_ended_monitor_state(_serve_window("holistic")) == sequential
    online = _open_ended_monitor_state(_run_query("online"))
    assert online["columns"][0]["histogram"] == histogram


@pytest.mark.parametrize(
    "drive",
    [
        pytest.param(path(strategy), id=f"{strategy}-{path.__name__[1:]}")
        for strategy in ("scan", "offline", "adaptive", "holistic")
        for path in (_run_query, _run_batch, _serve_window)
        # The front-end refuses strategies without a serving path.
        if path is not _serve_window or strategy in ("adaptive", "holistic")
    ],
)
def test_pending_insert_wider_than_the_cracker_dtype_keeps_its_value(drive):
    """Regression: an int64 column whose base fits int32 is cracked in
    int32, and the pending overlay cast a pending insert *down* to the
    result's dtype -- 5 000 000 000 came back as 705 032 704 from
    ``adaptive`` and ``holistic`` (count right, value wrong)."""
    wide = 5_000_000_000  # beyond int32, inside the column's int64
    ref = ColumnRef("R", "A1")
    db = Database(clock=SimClock())
    db.add_table(build_paper_table(rows=2_000, columns=1, seed=1))
    assert db.column("R", "A1").values.dtype == np.int64
    store = db.table("R").updates_for("A1")
    store.stage_inserts([wide, 31_000_000])
    store.stage_deletes([3], db.column("R", "A1").values[[3]])
    reference = ReferenceEngine(db, [ref])
    reference.apply(
        TraceOp("insert", ref, values=(wide, 31_000_000))
    )
    reference.apply(TraceOp("delete", ref, positions=(3,)))
    queries = [
        RangeQuery(ref, 3e7, math.inf),
        RangeQuery(ref, -math.inf, math.inf),
        RangeQuery(ref, 3e7, 6e7),
    ]
    _, results, _ = drive(db, queries)
    for query, result in zip(queries, results):
        values = result.values()
        assert result.count == len(values)
        assert np.array_equal(
            np.sort(values), reference.query(ref, query.low, query.high)
        )
    assert int(results[0].values().max()) == wide


_NAN_SHAPES = [(3e7, math.nan), (math.nan, 3e7), (math.nan, math.nan)]


def _nan_trace(drive, shapes):
    """Warm one range, then answer ``shapes`` through ``drive`` and
    check the rows against the reference engine.  Returns the strategy,
    the results and what the clock that answered was charged."""
    ref = ColumnRef("R", "A1")
    db = Database(clock=SimClock())
    db.add_table(build_paper_table(rows=2_000, columns=1, seed=1))
    reference = ReferenceEngine(db, [ref])
    queries = [RangeQuery(ref, 1e7, 5e7)] + [
        RangeQuery(ref, low, high) for low, high in shapes
    ]
    strategy, results, clock = drive(db, queries)
    for query, result in zip(queries, results):
        assert np.array_equal(
            np.sort(result.values()),
            reference.query(ref, query.low, query.high),
        )
    return strategy, results, clock.total_charge


@pytest.mark.parametrize(
    "drive",
    [
        pytest.param(path(strategy), id=f"{strategy}-{path.__name__[1:]}")
        for strategy in ("scan", "offline", "online", "adaptive", "holistic")
        for path in (_run_query, _run_batch, _serve_window)
        if path is not _serve_window or strategy in ("adaptive", "holistic")
    ],
)
def test_nan_bound_answers_empty_on_every_path(drive):
    """Regression: ``low <= v < nan`` holds for no ``v``, yet on a
    warmed index ``CrackerIndex.select_range(x, nan)`` answered
    ``[x, last cut)`` and recorded NaN as a pivot (``check_invariants``
    passed: NaN compares false), ``(nan, x)`` raised ``invalid view
    bounds``, ``run_batch``/``serve_window`` raised after the physical
    pass, and ``scan``'s ``run_batch`` answered ``[x, nan)`` with the
    tail of the column.  Every path answers empty for the query
    overhead alone and leaves the index as the warming query left it.
    """
    _, _, warming_charge = _nan_trace(drive, [])
    strategy, results, charge = _nan_trace(drive, _NAN_SHAPES)
    assert [result.count for result in results[1:]] == [0, 0, 0]
    assert charge == warming_charge + CostCharge(queries=len(_NAN_SHAPES))
    for index in getattr(strategy, "indexes", {}).values():
        index.check_invariants()
        assert not np.isnan(index.piece_map.pivots()).any()
        assert index.crack_count == 2  # the warming query's two bounds
    monitor = getattr(strategy, "monitor", None)
    if monitor is not None:  # counted, as every answered query is
        assert monitor.total_queries == 1 + len(_NAN_SHAPES)
