"""Degraded-mode serving: client faults isolated, healthy lanes exact.

The front-end's fault ladder: a malformed query is rejected
per entry without touching the shared index; a poison replay is
retried once solo and, if the retry also dies, answered by a base-
column scan.  In every case only the faulting client's accounting may
deviate -- other clients in the same window stay bit-identical to
their solo runs -- and an injected fault is credited as recovered
while a genuine error is not.
"""

from __future__ import annotations

import pytest

from repro import faults
from repro.cracking.batch import DetachedCrackReplay
from repro.engine.query import RangeQuery
from repro.engine.session import make_strategy
from repro.faults import FaultPlan, engaged
from repro.serving import ServingFrontend
from repro.storage.catalog import ColumnRef
from repro.storage.dtypes import normalise_range
from repro.serving.window import WindowEntry
from tests.conftest import ground_truth_count
from tests.conftest import recorded
from tests.serving.conftest import fresh_db, lane_state, solo_baseline

REF = ColumnRef("R", "A1")


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    faults.uninstall()
    yield
    faults.uninstall()


def _malformed(ref: ColumnRef = REF) -> RangeQuery:
    """An inverted range smuggled past RangeQuery validation."""
    query = RangeQuery.__new__(RangeQuery)
    object.__setattr__(query, "ref", ref)
    object.__setattr__(query, "low", 9.0)
    object.__setattr__(query, "high", 1.0)
    return query


def _queries(count: int, low: float = 5e6, step: float = 7e6):
    return [
        RangeQuery(REF, low + i * step, low + i * step + 4e6)
        for i in range(count)
    ]


def _frontend(db) -> ServingFrontend:
    return ServingFrontend(db, make_strategy("holistic", db), depth=8)


def _serve_collecting(frontend):
    collected: dict[str, list] = {name: [] for name in frontend.lanes}
    while True:
        entries = frontend.former.next_window()
        if not entries:
            break
        results = frontend.serve_window(entries)
        for entry, result in zip(entries, results):
            collected[entry.client].append(result)
    return collected


# -- malformed entries ---------------------------------------------------


def test_malformed_entry_is_rejected_without_touching_the_window():
    db = fresh_db()
    frontend = _frontend(db)
    healthy = _queries(4)
    recorded(frontend.add_client("good", healthy))
    frontend.add_client("chaos")
    entries = frontend.former.next_window()
    entries.append(WindowEntry(client="chaos", sequence=1, query=_malformed()))
    results = frontend.serve_window(entries)
    assert results[-1].count == 0
    assert len(results[-1].values()) == 0
    assert [f.kind for f in frontend.faults] == ["malformed"]
    assert frontend.faults[0].action == "rejected"
    assert frontend.faults[0].client == "chaos"
    assert "range inverted" in frontend.faults[0].error
    # The rejected entry produced no accounting on the chaos lane.
    assert frontend.lanes["chaos"].report.query_count == 0
    # Healthy client: bit-identical to its solo run.
    collected = {"good": [r for e, r in zip(entries, results) if e.client == "good"]}
    assert lane_state(frontend.lanes["good"], collected["good"]) == (
        solo_baseline("holistic", healthy)
    )


def test_malformed_entries_never_mark_the_run_failed():
    db = fresh_db()
    frontend = _frontend(db)
    frontend.add_client("chaos")
    report = frontend.serve_window(
        [WindowEntry(client="chaos", sequence=1, query=_malformed())]
    )
    assert [r.count for r in report] == [0]
    assert frontend.windows_served == 1


# -- poison replays ------------------------------------------------------


def test_poison_replay_is_retried_solo():
    db = fresh_db()
    column = db.column("R", "A1")
    frontend = _frontend(db)
    frontend.add_client("a", _queries(2))
    frontend.add_client("b", _queries(2, low=6e6))
    plan = FaultPlan()
    # Replay order of the single window is a0, a1, b0, b1: hit 2 is
    # b's first query; its solo retry (hit 3's counter slot) is clean.
    plan.arm("serving.replay", at=2)
    with engaged(plan):
        collected = _serve_collecting(frontend)
    assert plan.injected == 1
    assert plan.unrecovered() == []
    assert [f.action for f in frontend.faults] == ["retried_solo"]
    assert frontend.faults[0].client == "b"
    assert frontend.faults[0].kind == "poison"
    # The retried query still answered correctly.
    for lane in ("a", "b"):
        for query, result in zip(
            [e for e in (_queries(2) if lane == "a" else _queries(2, low=6e6))],
            collected[lane],
        ):
            assert result.count == ground_truth_count(
                column, query.low, query.high
            )


def test_poison_retry_failure_falls_back_to_a_scan():
    db = fresh_db()
    column = db.column("R", "A1")
    frontend = _frontend(db)
    frontend.add_client("a", _queries(2))
    frontend.add_client("b", _queries(2, low=6e6))
    plan = FaultPlan()
    # Consecutive hits: the solo retry fails too, forcing the base-
    # column scan of last resort.
    plan.arm("serving.replay", at=[2, 3])
    with engaged(plan):
        collected = _serve_collecting(frontend)
    assert plan.injected == 2
    assert plan.unrecovered() == []
    assert [f.action for f in frontend.faults] == ["scan_fallback"]
    queries = {"a": _queries(2), "b": _queries(2, low=6e6)}
    for lane, lane_queries in queries.items():
        for query, result in zip(lane_queries, collected[lane]):
            assert result.count == ground_truth_count(
                column, query.low, query.high
            )


def test_healthy_clients_stay_solo_identical_under_poison():
    healthy = _queries(6)
    db = fresh_db()
    frontend = _frontend(db)
    recorded(frontend.add_client("good", healthy))
    frontend.add_client("victim", _queries(6, low=3e6))
    plan = FaultPlan()
    # Replay order serves all of "good" (hits 0-5) before "victim"
    # (hits 6-11); both armed hits land on victim queries.
    plan.arm("serving.replay", at=[6, 9])
    with engaged(plan):
        collected = _serve_collecting(frontend)
    victims = {f.client for f in frontend.faults}
    assert victims and "good" not in victims
    assert lane_state(frontend.lanes["good"], collected["good"]) == (
        solo_baseline("holistic", healthy)
    )


def test_genuine_replay_errors_are_not_credited_as_recovered(monkeypatch):
    db = fresh_db()
    column = db.column("R", "A1")
    frontend = _frontend(db)
    queries = _queries(2)
    frontend.add_client("a", queries)
    calls = {"n": 0}
    real_replay = DetachedCrackReplay.replay

    def flaky(replay, low, high):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("genuine replay bug")
        return real_replay(replay, low, high)

    monkeypatch.setattr(DetachedCrackReplay, "replay", flaky)
    plan = FaultPlan()  # engaged, but nothing armed
    with engaged(plan):
        collected = _serve_collecting(frontend)
    assert [f.action for f in frontend.faults] == ["retried_solo"]
    # Nothing was injected, so nothing may be claimed as recovered.
    assert plan.injected == 0
    assert plan.summary()["recovered"] == 0
    for query, result in zip(queries, collected["a"]):
        assert result.count == ground_truth_count(column, query.low, query.high)
    # The retry replays the failed bisect replay alone: the read's
    # per-query overhead is charged once.
    assert frontend.lanes["a"].clock.total_charge.queries == len(queries)


# -- converged served reads ----------------------------------------------


def _converged_rounds(plan: FaultPlan):
    """Serve ``good`` and ``victim`` their streams once, then the same
    streams again with ``plan`` engaged.  Every non-empty read of the
    second round is converged -- both bounds already pivots of its
    lane's shadow map -- so the ladder trips on the one-step path.

    Returns the database, the front-end, both streams and both rounds'
    results per client.  The victim's stream holds one empty range,
    which no replay serves."""
    streams = {
        "good": _queries(6),
        "victim": [*_queries(5, low=3e6), RangeQuery(REF, 4e6, 4e6)],
    }
    db = fresh_db()
    frontend = _frontend(db)
    for name, stream in streams.items():
        recorded(frontend.add_client(name, stream))
    first = _serve_collecting(frontend)
    dtype = db.column("R", "A1").values.dtype
    for name, stream in streams.items():
        frontend.submit(name, stream)
        pivots = frontend.lanes[name].replays[REF].sim.cut_of.keys()
        for query in stream:
            bounds = normalise_range(dtype, query.low, query.high)
            assert bounds is None or set(bounds) <= pivots
    with engaged(plan):
        second = _serve_collecting(frontend)
    return db, frontend, streams, first, second


def _assert_served_exactly(db, frontend, streams, first, second, solo):
    """Every second-round answer equals the oracle, and each client in
    ``solo`` is bit-identical to its solo run over both rounds."""
    values = db.column("R", "A1").values
    for name, stream in streams.items():
        for query, result in zip(stream, second[name]):
            mask = (values >= query.low) & (values < query.high)
            assert sorted(result.values().tolist()) == sorted(
                values[mask].tolist()
            )
    for name in solo:
        assert lane_state(
            frontend.lanes[name], first[name] + second[name]
        ) == solo_baseline("holistic", streams[name] * 2)


def test_every_non_empty_converged_read_trips_the_ladder_once():
    plan = FaultPlan()  # engaged, but nothing armed
    db, frontend, streams, first, second = _converged_rounds(plan)
    assert plan.hits("serving.replay") == 11  # 6 + 5; the empty one none
    assert frontend.faults == []
    _assert_served_exactly(
        db, frontend, streams, first, second, solo=("good", "victim")
    )


def test_poisoned_converged_read_is_retried_solo():
    plan = FaultPlan()
    # The second round is one window that starts with "good" (hits
    # 0-5); hit 6 is the victim's first converged read.
    plan.arm("serving.replay", at=6)
    db, frontend, streams, first, second = _converged_rounds(plan)
    assert plan.injected == 1
    assert plan.unrecovered() == []
    assert [(f.client, f.kind, f.action) for f in frontend.faults] == [
        ("victim", "poison", "retried_solo")
    ]
    assert plan.hits("serving.replay") == 11 + 1  # the retry trips again
    # The trip fires before the read is priced, so the retried read
    # leaves the victim solo-identical too.
    _assert_served_exactly(
        db, frontend, streams, first, second, solo=("good", "victim")
    )


def test_genuine_error_on_a_converged_read_is_not_credited(monkeypatch):
    real_replay_query = DetachedCrackReplay.replay_query
    raised = []

    def flaky(replay, low, high):
        if replay._client == "victim" and faults.active() and not raised:
            raised.append((low, high))
            raise RuntimeError("genuine replay bug")
        return real_replay_query(replay, low, high)

    monkeypatch.setattr(DetachedCrackReplay, "replay_query", flaky)
    plan = FaultPlan()  # engaged, but nothing armed
    db, frontend, streams, first, second = _converged_rounds(plan)
    assert len(raised) == 1
    assert [(f.client, f.action) for f in frontend.faults] == [
        ("victim", "retried_solo")
    ]
    assert plan.injected == 0
    assert plan.summary()["recovered"] == 0
    assert plan.hits("serving.replay") == 11 + 1
    _assert_served_exactly(
        db, frontend, streams, first, second, solo=("good",)
    )
