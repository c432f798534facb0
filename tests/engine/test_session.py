"""Unit tests for sessions: timing, idle accounting, waiting debt."""

import pytest

from repro.config import TINY
from repro.engine.session import IdleRecord, Session, make_strategy
from repro.errors import ConfigError
from repro.simtime.clock import SimClock
from repro.storage.database import Database
from repro.storage.loader import build_paper_table
from repro.workload.patterns import Exp1Pattern
from tests.conftest import query_records, recorded


def _session(tiny_db, strategy="scan", **options) -> Session:
    """A session whose report keeps every record."""
    return recorded(tiny_db.session(strategy, **options))


def _tiny_db() -> Database:
    """A second database like the ``tiny_db`` fixture's."""
    db = Database(clock=SimClock(TINY.cost_model()))
    db.add_table(build_paper_table(rows=10_000, columns=3, seed=42))
    return db


def test_select_records_response(tiny_db):
    session = _session(tiny_db)
    session.select("R", "A1", 1e6, 2e6)
    assert session.report.query_count == 1
    record = query_records(session.report)[0]
    assert record.response_s > 0
    assert record.cumulative_response_s == pytest.approx(
        record.response_s
    )


def test_cumulative_curve_monotone(tiny_db):
    session = _session(tiny_db)
    for i in range(5):
        session.select("R", "A1", 1e6 * i, 1e6 * (i + 1))
    curve = session.report.cumulative_curve()
    assert all(a <= b for a, b in zip(curve, curve[1:]))
    assert session.report.total_response_s == curve[-1]


def test_report_keeps_totals_without_a_sink(tiny_db):
    """By default a report keeps no records, and its running totals
    equal what a twin session's record sink adds up to."""
    plain = tiny_db.session("offline", build_policy="always_build")
    other = _tiny_db()
    twin = recorded(other.session("offline", build_policy="always_build"))
    for session, db in ((plain, tiny_db), (twin, other)):
        session.hint_workload(Exp1Pattern(query_count=10).statements())
        sort_s = db.cost_model.sort_seconds(db.column("R", "A1").row_count)
        session.idle(seconds=sort_s / 10)
        session.select("R", "A1", 1e6, 2e6)
        session.run_batch(list(Exp1Pattern(query_count=6, seed=3).queries()))
        session.idle(seconds=1.0)
    report = plain.report
    assert report.records is None
    queries = query_records(twin.report)
    idles = [r for r in twin.report.records if isinstance(r, IdleRecord)]
    assert len(twin.report.records) == 9
    assert report.query_count == len(queries) == 7
    assert report.total_response_s == queries[-1].cumulative_response_s
    assert report.total_wait_s == sum(r.wait_s for r in queries) > 0
    assert report.result_rows == sum(r.result_count for r in queries)
    assert report.idle_count == len(idles) == 2
    assert report.idle_consumed_s == sum(r.consumed_s for r in idles)
    assert report.idle_debt_s == sum(r.debt_s for r in idles) > 0
    with pytest.raises(ConfigError, match="sink"):
        report.cumulative_curve()


def test_restored_session_continues_its_totals(tiny_db):
    """A restored session reads the restored total and count at once,
    and its next query adds to them."""
    session = tiny_db.session("scan")
    for i in range(3):
        session.select("R", "A1", 1e6 * i, 1e6 * (i + 1))
    state = session.export_state()
    assert state["queries_answered"] == 3

    restored = _tiny_db().session("scan")
    restored.restore_state(state)
    assert restored.report.total_response_s == session.report.total_response_s
    assert restored.report.query_count == 3
    before = restored.report.total_response_s
    recorded(restored)
    restored.select("R", "A1", 5e6, 6e6)
    (record,) = query_records(restored.report)
    assert record.sequence == restored.report.query_count == 4
    assert record.cumulative_response_s == before + record.response_s
    assert restored.report.total_response_s == record.cumulative_response_s


def test_idle_without_budget_rejected(tiny_db):
    session = _session(tiny_db)
    with pytest.raises(ConfigError):
        session.idle()


def test_idle_seconds_advances_clock_not_responses(tiny_db):
    session = _session(tiny_db)
    t0 = tiny_db.clock.now()
    record = session.idle(seconds=3.0)
    assert tiny_db.clock.now() == pytest.approx(t0 + 3.0)
    assert record.nominal_s == 3.0
    assert record.debt_s == 0.0
    assert session.report.total_response_s == 0.0


def test_blocking_overrun_becomes_query_wait(tiny_db):
    """Offline builds past the window: the next query pays the wait."""
    session = _session(
        tiny_db, "offline", build_policy="always_build"
    )
    pattern = Exp1Pattern(query_count=10)
    session.hint_workload(pattern.statements())
    sort_s = tiny_db.cost_model.sort_seconds(
        tiny_db.column("R", "A1").row_count
    )
    window = sort_s / 10  # far too small for the sort
    record = session.idle(seconds=window)
    assert record.debt_s == pytest.approx(sort_s - window, rel=0.01)
    session.select("R", "A1", 1e6, 2e6)
    first = query_records(session.report)[0]
    assert first.wait_s == pytest.approx(record.debt_s)
    assert first.response_s >= first.wait_s
    # The debt is paid exactly once.
    session.select("R", "A1", 3e6, 4e6)
    assert query_records(session.report)[1].wait_s == 0.0
    assert session.report.total_wait_s == first.wait_s


def test_nonblocking_idle_extends_nominal(tiny_db):
    """Holistic tuning may overshoot the window; no debt accrues."""
    session = _session(tiny_db, "holistic")
    record = session.idle(actions=5)
    assert record.debt_s == 0.0
    assert record.nominal_s == pytest.approx(record.consumed_s)
    session.select("R", "A1", 1e6, 2e6)
    assert query_records(session.report)[0].wait_s == 0.0


def test_unfilled_window_sleeps_remainder(tiny_db):
    """Scan cannot exploit idle time; the clock still moves."""
    session = _session(tiny_db, "scan")
    t0 = tiny_db.clock.now()
    record = session.idle(seconds=2.0)
    assert record.actions_done == 0
    assert tiny_db.clock.now() == pytest.approx(t0 + 2.0)


def test_explain_reports_access_path(tiny_db):
    from repro.engine.plan import AccessPath

    scan_session = _session(tiny_db, "scan")
    plan = scan_session.explain("R", "A1", 0, 10)
    assert plan.path is AccessPath.SCAN
    assert plan.estimated_s > 0
    assert "SCAN" in plan.explain()

    adaptive_session = _session(tiny_db, "adaptive")
    plan = adaptive_session.explain("R", "A1", 0, 10)
    assert plan.path is AccessPath.CRACKER


def test_make_strategy_rejects_unknown(tiny_db):
    with pytest.raises(ConfigError):
        make_strategy("nonsense", tiny_db)


def test_make_strategy_holistic_config_exclusive(tiny_db):
    from repro.holistic.kernel import HolisticConfig

    with pytest.raises(ConfigError, match="not both"):
        make_strategy(
            "holistic",
            tiny_db,
            config=HolisticConfig(),
            policy="ranked",
        )


def test_result_count_recorded(tiny_db):
    session = _session(tiny_db)
    result = session.select("R", "A1", 0, 5e7)
    assert query_records(session.report)[0].result_count == result.count
    assert session.report.result_rows == result.count
