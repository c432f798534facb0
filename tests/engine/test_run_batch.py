"""Session windows: what ``run_batch`` adds over a ``run_query`` loop.

A session window resolves every column it names, then answers each
read with ``run_query``, so results, charges and notes are those of
the loop by construction.  What the window adds is tested here: an
empty window does nothing, an unknown column anywhere in it raises
before any read, and a read failing mid-window leaves what the loop
failing there leaves.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.query import RangeQuery
from repro.errors import UnknownColumnError, UnknownTableError
from repro.simtime.charge import CostCharge
from repro.simtime.clock import SimClock
from repro.storage.catalog import ColumnRef
from repro.storage.database import Database
from repro.storage.loader import build_paper_table
from tests.conftest import query_records, recorded

SPAN = 100_000_000


def _database(seed: int, rows: int = 3000, columns: int = 2) -> Database:
    db = Database(clock=SimClock())
    db.add_table(build_paper_table(rows=rows, columns=columns, seed=seed))
    return db


def test_empty_batch_is_a_noop():
    db = _database(1)
    session = db.session("adaptive")
    assert session.run_batch([]) == []
    assert session.report.query_count == 0
    assert session.clock.now() == 0.0


def test_failed_batch_setup_leaves_no_silent_cracks():
    """An unknown table or column anywhere in the window raises before
    any read: nothing is cracked, charged or counted, not even for the
    reads before it."""
    good = RangeQuery(ColumnRef("R", "A1"), 1e6, 2e6)
    other = RangeQuery(ColumnRef("R", "A2"), 3e6, 4e6)
    bad_column = RangeQuery(ColumnRef("R", "NOPE"), 1e6, 2e6)
    bad_table = RangeQuery(ColumnRef("S", "A1"), 1e6, 2e6)
    db = _database(3)
    session = db.session("adaptive")
    for bad, error in (
        (bad_column, UnknownColumnError),
        (bad_table, UnknownTableError),
    ):
        for slot in range(3):
            window = [good, other]
            window.insert(slot, bad)
            with pytest.raises(error):
                session.run_batch(window)
            assert session.strategy.indexes == {}
            assert session.clock.now() == 0.0
            assert session.clock.total_charge == CostCharge()
            assert session.report.query_count == 0
            assert session.report.result_rows == 0
    # The session stays fully usable and bit-identical afterwards.
    session.run_batch([good])
    reference = _database(3).session("adaptive")
    reference.run_query(good)
    assert repr(session.clock.now()) == repr(reference.clock.now())
    assert session.clock.total_charge == reference.clock.total_charge


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
