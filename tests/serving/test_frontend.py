"""The serving front-end's core guarantees, deterministically.

Each client of a shared kernel must observe exactly what it would have
observed running alone: same results, same response times, same clock
totals, same piece-map trajectory -- while the shared index does the
physical work once.
"""

from __future__ import annotations

import pytest

from repro.engine.query import RangeQuery
from repro.engine.session import make_strategy
from repro.errors import ConfigError
from repro.serving import CrossSessionWindowFormer, ServingFrontend
from repro.storage.catalog import ColumnRef
from repro.workload.multiclient import make_closed_loop_clients
from tests.serving.conftest import (
    DOMAIN_HIGH,
    DOMAIN_LOW,
    fresh_db,
    lane_state,
    solo_baseline,
)
from tests.conftest import query_records, recorded

COLUMN_REFS = [ColumnRef("R", "A1"), ColumnRef("R", "A2")]


def _serve_collecting(frontend):
    """Drive the former to completion, collecting per-client results."""
    collected: dict[str, list] = {name: [] for name in frontend.lanes}
    while True:
        entries = frontend.former.next_window()
        if not entries:
            break
        results = frontend.serve_window(entries)
        for entry, result in zip(entries, results):
            collected[entry.client].append(result)
    return collected


@pytest.mark.parametrize("strategy", ["adaptive", "holistic"])
@pytest.mark.parametrize("pending", [False, True])
def test_every_client_matches_its_solo_run(strategy, pending):
    workloads = make_closed_loop_clients(
        COLUMN_REFS, DOMAIN_LOW, DOMAIN_HIGH,
        clients=4, queries_per_client=50, seed=17,
    )
    db = fresh_db(pending=pending)
    frontend = ServingFrontend(db, make_strategy(strategy, db), depth=8)
    lanes = {
        w.client: recorded(frontend.add_client(w.client, w.queries))
        for w in workloads
    }
    collected = _serve_collecting(frontend)
    for workload in workloads:
        solo = solo_baseline(
            strategy, workload.queries, pending=pending
        )
        served = lane_state(
            lanes[workload.client], collected[workload.client]
        )
        assert served == solo


def _solo_tape_counts(strategy) -> dict:
    """A solo kernel's per-origin crack counts: the holistic kernel
    shares one tape, adaptive indexes each keep their own."""
    tape = getattr(strategy, "tape", None)
    if tape is not None:
        return tape.export_state()["counts"]
    counts: dict[str, int] = {}
    for index in strategy.indexes.values():
        for origin, count in index.tape.export_state()["counts"].items():
            counts[origin] = counts.get(origin, 0) + count
    return counts


@pytest.mark.parametrize("strategy", ["adaptive", "holistic"])
def test_lanes_keep_solo_tapes_charges_and_kernel_statistics(strategy):
    """What a lane promises beyond responses: its crack tape counts
    its solo kernel's cracks origin by origin, its shadow maps are the
    solo piece maps, each query finishes at its solo clock reading;
    its clock's work counters are the solo clock's; and the shared
    kernel's statistics count exactly the queries the solo kernels
    counted."""
    workloads = make_closed_loop_clients(
        COLUMN_REFS, DOMAIN_LOW, DOMAIN_HIGH,
        clients=3, queries_per_client=40, seed=23,
    )
    db = fresh_db(pending=True)
    kernel = make_strategy(strategy, db)
    frontend = ServingFrontend(db, kernel, depth=4)
    lanes = {
        w.client: recorded(frontend.add_client(w.client, w.queries))
        for w in workloads
    }
    frontend.run()
    solos = []
    for workload in workloads:
        solo_db = fresh_db(pending=True)
        session = recorded(solo_db.session(strategy))
        for query in workload.queries:
            session.run_query(query)
        solos.append(session.strategy)
        lane = lanes[workload.client]
        assert lane.tape.export_state()["counts"] == _solo_tape_counts(
            session.strategy
        )
        assert lane.shadow_state() == {
            (ref.table, ref.column): (
                index.piece_map.pivots(),
                index.piece_map.cuts(),
            )
            for ref, index in session.strategy.indexes.items()
        }
        assert [r.finished_at for r in query_records(lane.report)] == [
            r.finished_at for r in query_records(session.report)
        ]
        assert lane.clock.total_charge == solo_db.clock.total_charge
    if strategy != "holistic":
        return

    def query_counts(monitor) -> dict:
        return {
            (c["table"], c["column"]): c["query_count"]
            for c in monitor.export_state()["columns"]
        }

    served = query_counts(kernel.monitor)
    solo_counts = [query_counts(solo.monitor) for solo in solos]
    for ref in COLUMN_REFS:
        key = (ref.table, ref.column)
        assert served[key] == sum(counts[key] for counts in solo_counts)


def test_run_reports_windows():
    workloads = make_closed_loop_clients(
        COLUMN_REFS, DOMAIN_LOW, DOMAIN_HIGH,
        clients=3, queries_per_client=20, seed=5,
    )
    db = fresh_db()
    frontend = ServingFrontend(db, make_strategy("adaptive", db), depth=4)
    for workload in workloads:
        recorded(frontend.add_client(workload.client, workload.queries))
    report = frontend.run()
    # Every window takes depth=4 queries from each of the 3 clients.
    assert report.windows == 5
    assert {
        name: session_report.query_count
        for name, session_report in report.clients.items()
    } == {workload.client: 20 for workload in workloads}
    # Every record is tagged with its lane's client.
    for name, session_report in report.clients.items():
        assert session_report.client == name
        records = query_records(session_report)
        assert len(records) == 20
        assert all(r.client == name for r in records)


def test_shared_index_does_the_union_of_physical_work_once():
    workloads = make_closed_loop_clients(
        COLUMN_REFS, DOMAIN_LOW, DOMAIN_HIGH,
        clients=4, queries_per_client=30, seed=3,
    )
    db = fresh_db()
    kernel = make_strategy("adaptive", db)
    frontend = ServingFrontend(db, kernel, depth=8)
    lanes = [
        frontend.add_client(w.client, w.queries) for w in workloads
    ]
    frontend.run()
    for ref, index in kernel.indexes.items():
        index.check_invariants()
        key = (ref.table, ref.column)
        shared_pivots = set(index.piece_map.pivots())
        client_pivots = set()
        for lane in lanes:
            replay = lane.replays.get(key)
            if replay is not None:
                client_pivots.update(replay.sim.pivots())
        # The shared index holds exactly the union of every client's
        # cracks -- each distinct bound cracked once, not once per
        # client.
        assert shared_pivots == client_pivots


def test_mid_run_submission_extends_a_lane():
    db = fresh_db()
    frontend = ServingFrontend(db, make_strategy("adaptive", db), depth=8)
    queries = make_closed_loop_clients(
        COLUMN_REFS, DOMAIN_LOW, DOMAIN_HIGH,
        clients=1, queries_per_client=20, seed=8,
    )[0].queries
    lane = recorded(frontend.add_client("c", queries[:10]))
    frontend.run()
    frontend.submit("c", queries[10:])
    frontend.run()
    solo = solo_baseline("adaptive", queries)
    assert [r.response_s for r in query_records(lane.report)] == (
        solo["responses"]
    )
    assert lane.report.total_response_s == solo["totals"][1]
    assert lane.clock.now() == solo["clock_now"]


def test_unknown_client_and_duplicates_are_rejected():
    db = fresh_db()
    frontend = ServingFrontend(db, make_strategy("adaptive", db))
    frontend.add_client("c")
    with pytest.raises(ConfigError):
        frontend.add_client("c")
    with pytest.raises(ConfigError):
        frontend.submit("ghost", [])


def test_ineligible_strategies_are_rejected():
    db = fresh_db()
    with pytest.raises(ConfigError):
        ServingFrontend(db, make_strategy("scan", db))
    with pytest.raises(ConfigError):
        ServingFrontend(db, make_strategy("adaptive", db, variant="ddc"))


def test_bad_window_entry_fails_before_any_physical_work():
    db = fresh_db()
    kernel = make_strategy("adaptive", db)
    frontend = ServingFrontend(db, kernel, depth=8)
    frontend.add_client("good", [RangeQuery(COLUMN_REFS[0], 10.0, 20.0)])
    frontend.add_client(
        "bad", [RangeQuery(ColumnRef("R", "NOPE"), 5.0, 30.0)]
    )
    with pytest.raises(Exception):
        frontend.run()
    # Nothing was cracked: the good client's bounds never reached the
    # shared index either (all-or-nothing window admission).
    assert not kernel.indexes or all(
        index.crack_count == 0 for index in kernel.indexes.values()
    )


def test_window_entries_from_unregistered_clients_are_rejected():
    db = fresh_db()
    frontend = ServingFrontend(db, make_strategy("adaptive", db))
    former = CrossSessionWindowFormer()
    former.admit("ghost", [RangeQuery(COLUMN_REFS[0], 1.0, 2.0)])
    with pytest.raises(ConfigError):
        frontend.serve_window(former.next_window())
