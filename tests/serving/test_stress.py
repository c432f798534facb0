"""Stress: the serving loop beside other threads and idle windows.

Producer threads admit queries while the main thread serves, and a
holistic kernel's tuning workers crack the shared index from real
threads in idle windows between served windows.  Cracks are order
independent, so per-client accounting must stay bit-identical to solo
runs either way -- the paper's idle-core claim carried into the
multi-tenant scenario.
"""

from __future__ import annotations

import threading

import pytest

from repro.engine.session import make_strategy
from repro.serving import ServingFrontend
from repro.storage.catalog import ColumnRef
from repro.workload.multiclient import make_closed_loop_clients
from tests.conftest import query_records, recorded
from tests.serving.conftest import (
    DOMAIN_HIGH,
    DOMAIN_LOW,
    fresh_db,
    solo_baseline,
)

REFS = [ColumnRef("R", "A1"), ColumnRef("R", "A2")]


def _workloads(seed=31, clients=3, queries=40):
    return make_closed_loop_clients(
        REFS, DOMAIN_LOW, DOMAIN_HIGH,
        clients=clients, queries_per_client=queries, seed=seed,
    )


def test_idle_windows_between_served_windows_keep_solo_accounting():
    workloads = _workloads()
    solo = {
        w.client: solo_baseline(
            "holistic", w.queries, cache_target_elements=64
        )
        for w in workloads
    }
    db = fresh_db()
    kernel = make_strategy(
        "holistic", db, num_workers=2, cache_target_elements=64
    )
    frontend = ServingFrontend(db, kernel, depth=4)
    lanes = {
        w.client: recorded(frontend.add_client(w.client, w.queries))
        for w in workloads
    }
    while entries := frontend.former.next_window():
        frontend.serve_window(entries)
        kernel.exploit_idle(actions=16)
    assert sum(lane.report.query_count for lane in lanes.values()) == sum(
        len(w.queries) for w in workloads
    )
    effective = sum(
        stats.actions_effective
        for stats in kernel.worker_pool.worker_stats()
    )
    # The workers really did crack the shared index between windows.
    assert effective > 0
    for workload in workloads:
        lane = lanes[workload.client]
        baseline = solo[workload.client]
        assert [
            r.response_s for r in query_records(lane.report)
        ] == baseline["responses"]
        assert [
            r.result_count for r in query_records(lane.report)
        ] == baseline["counts"]
        assert lane.clock.now() == baseline["clock_now"]
        # Each client's shadow trajectory is its solo piece map even
        # though the shared index took everyone's (and the workers')
        # cracks.
        assert lane.shadow_state() == baseline["piece_maps"]
    for index in kernel.indexes.values():
        index.check_invariants()


def test_concurrent_submission_threads_feed_the_serving_loop():
    """Producer threads admit queries while the main thread serves."""
    workloads = _workloads(seed=47, clients=4, queries=30)
    solo = {
        w.client: solo_baseline("adaptive", w.queries)
        for w in workloads
    }
    db = fresh_db()
    frontend = ServingFrontend(db, make_strategy("adaptive", db), depth=4)
    lanes = {
        w.client: recorded(frontend.add_client(w.client))
        for w in workloads
    }
    started = threading.Barrier(len(workloads) + 1)

    def feed(workload):
        started.wait()
        # Trickle the stream in small chunks to interleave with serving.
        for i in range(0, len(workload.queries), 5):
            frontend.submit(workload.client, workload.queries[i : i + 5])

    threads = [
        threading.Thread(target=feed, args=(w,)) for w in workloads
    ]
    for thread in threads:
        thread.start()
    started.wait()
    # Serve until the producers are done and every queue is drained.
    while any(thread.is_alive() for thread in threads) or (
        any(frontend.former._queues.values())
    ):
        entries = frontend.former.next_window()
        if entries:
            frontend.serve_window(entries)
    for thread in threads:
        thread.join()
    for workload in workloads:
        lane = lanes[workload.client]
        baseline = solo[workload.client]
        assert [
            r.response_s for r in query_records(lane.report)
        ] == baseline["responses"]
        assert lane.clock.now() == baseline["clock_now"]


@pytest.mark.parametrize("depth", [1, 3, 16])
def test_window_depth_never_changes_per_client_accounting(depth):
    workloads = _workloads(seed=13, clients=2, queries=25)
    db = fresh_db()
    frontend = ServingFrontend(
        db, make_strategy("holistic", db), depth=depth
    )
    lanes = {
        w.client: recorded(frontend.add_client(w.client, w.queries))
        for w in workloads
    }
    frontend.run()
    for workload in workloads:
        baseline = solo_baseline("holistic", workload.queries)
        lane = lanes[workload.client]
        assert [
            r.response_s for r in query_records(lane.report)
        ] == baseline["responses"]
        assert lane.shadow_state() == baseline["piece_maps"]
