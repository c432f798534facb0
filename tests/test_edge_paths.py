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
        results = []
        while entries := frontend.former.next_window():
            results += frontend.serve_window(entries)
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


#: 2^60 +- 600: float64 spaces its values 256 apart, so a float bound
#: or a float pivot names almost none of them.
_BIG = 2**60


def _two_column_db() -> Database:
    """``R.A1``: a paper-style int64 column cracked as int32; ``R.B``:
    the int64 values ``2^60 - 600 .. 2^60 + 600``."""
    rng = np.random.default_rng(26)
    table = Table("R")
    table.add_column(
        Column("A1", rng.integers(0, 100_000_000, 1_201, dtype=np.int64))
    )
    table.add_column(
        Column("B", rng.permutation(np.arange(_BIG - 600, _BIG + 601)))
    )
    db = Database(clock=SimClock())
    db.add_table(table)
    return db


#: ``(column, low, high)`` shapes, after a warming query on each column.
_SHAPES = [
    ("B", _BIG + 1, _BIG + 7),  # raised "pivot out of order"
    ("B", _BIG, _BIG + 100),  # answered 0 rows after the warming query
    ("B", float(_BIG), float(_BIG + 512)),  # 448 rows, reference included
    ("B", _BIG - 299.5, float(_BIG)),
    ("A1", 1e7 + 0.5, 3e7),
    ("B", _BIG + 500, math.inf),
    ("A1", -math.inf, 2.5e7),
]
#: Shapes no value lies in: each costs the per-query overhead alone.
_EMPTY_SHAPES = [
    ("A1", 3e7, math.nan),
    ("A1", math.nan, 3e7),
    ("B", math.nan, math.nan),
    ("B", _BIG + 7.25, _BIG + 7.75),
    ("B", 2.0**63, math.inf),
]
_WARMING = [("A1", 1e7, 5e7), ("B", _BIG - 100.5, _BIG + 3)]


def _bounds_trace(drive, shapes):
    """Warm both columns, then answer ``shapes`` through ``drive`` and
    check the rows against the reference engine.  Returns the strategy
    and what the clock that answered was charged."""
    db = _two_column_db()
    refs = [ColumnRef("R", "A1"), ColumnRef("R", "B")]
    reference = ReferenceEngine(db, refs)
    queries = [
        RangeQuery(ColumnRef("R", column), low, high)
        for column, low, high in _WARMING + shapes
    ]
    strategy, results, clock = drive(db, queries)
    for query, result in zip(queries, results):
        assert np.array_equal(
            np.sort(result.values()),
            reference.query(query.ref, query.low, query.high),
        ), query
    for index in getattr(strategy, "indexes", {}).values():
        index.check_invariants()
    return strategy, clock.total_charge


def _crack_count(strategy) -> int:
    indexes = getattr(strategy, "indexes", {}).values()
    return sum(index.crack_count for index in indexes)


@pytest.mark.parametrize(
    "drive",
    [
        pytest.param(path(strategy), id=f"{strategy}-{path.__name__[1:]}")
        for strategy in ("scan", "offline", "online", "adaptive", "holistic")
        for path in (_run_query, _run_batch, _serve_window)
        if path is not _serve_window or strategy in ("adaptive", "holistic")
    ],
)
def test_bounds_answer_like_the_reference_on_every_path(drive):
    """Regression: on an int64 column of 2^60 +- 600, adaptive and
    holistic ``run_query([2^60+1, 2^60+7))`` raised ``CrackerError:
    pivot ... out of order`` and ``run_batch`` a ``KeyError``; after a
    warming query ``[2^60, 2^60+100)`` answered 0 rows; scan's
    ``run_batch`` answered 0 of 6; and ``[float(2^60),
    float(2^60+512))`` answered 448 of 512 rows -- in the reference
    engine too.  Every path answers like the (exact) reference.

    A range no value lies in -- a NaN bound, or no integer between
    the bounds -- is answered for the query overhead alone and leaves
    every index as it was; the monitor still counts it.
    """
    strategy, charge = _bounds_trace(drive, _SHAPES)
    both, both_charge = _bounds_trace(drive, _SHAPES + _EMPTY_SHAPES)
    assert both_charge == charge + CostCharge(queries=len(_EMPTY_SHAPES))
    assert _crack_count(both) == _crack_count(strategy)
    for index in getattr(both, "indexes", {}).values():
        assert not np.isnan(index.piece_map.pivots()).any()
    monitor = getattr(both, "monitor", None)
    if monitor is not None:  # counted, as every answered query is
        assert monitor.total_queries == len(
            _WARMING + _SHAPES + _EMPTY_SHAPES
        )


def test_select_range_normalises_a_raw_bound():
    """A fractional bound handed straight to the index is normalised,
    never truncated into an integer pivot: ``10.5`` on an int column
    selects the rows of ``[11, ...)`` and cracks at 11."""
    column = Column("A", np.arange(30, dtype=np.int64))
    index = CrackerIndex(column, clock=SimClock())
    assert sorted(index.select_range(10.5, 20).values().tolist()) == list(
        range(11, 20)
    )
    assert index.piece_map.pivots() == [11, 20]
    index.check_invariants()


def test_reference_engine_compares_exactly():
    """Regression: ``base >= low`` promoted the int64 column to float64,
    so ``[float(2^60), float(2^60+512))`` answered 448 of 512 rows."""
    db = _two_column_db()
    ref = ColumnRef("R", "B")
    rows = ReferenceEngine(db, [ref]).query(
        ref, float(_BIG), float(_BIG + 512)
    )
    assert rows.tolist() == list(range(_BIG, _BIG + 512))
