"""Served windows whose bounds are already cut skip the physical pass.

The front-end remembers every cut position a window's pass returned,
per column and per piece map; a range whose bounds are all remembered
(a top counts as known) never reaches
:meth:`CrackerIndex.crack_bounds_batch`.  The map is forgotten when the
index's piece map is replaced (a rebuild), and served views always
slice the index's current arrays.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cracking.index import CrackerIndex
from repro.engine.query import RangeQuery
from repro.engine.session import make_strategy
from repro.serving import ServingFrontend
from repro.serving.window import WindowEntry
from repro.storage.catalog import ColumnRef
from repro.workload.multiclient import make_closed_loop_clients
from tests.conftest import recorded
from tests.serving.conftest import (
    DOMAIN_HIGH,
    DOMAIN_LOW,
    fresh_db,
    lane_state,
    solo_baseline,
)

A1 = ColumnRef("R", "A1")


@pytest.fixture
def passes(monkeypatch):
    """Every ``crack_bounds_batch`` call's ranges, in call order."""
    calls: list[list[tuple]] = []
    original = CrackerIndex.crack_bounds_batch

    def spy(self, bounds):
        calls.append(list(bounds))
        return original(self, bounds)

    monkeypatch.setattr(CrackerIndex, "crack_bounds_batch", spy)
    return calls


def _serve(frontend, client, ranges):
    """Serve one window of ``client``'s ``ranges`` on column A1."""
    entries = [
        WindowEntry(client, i, RangeQuery(A1, low, high))
        for i, (low, high) in enumerate(ranges)
    ]
    return frontend.serve_window(entries)


def _oracle(db, low, high) -> list:
    values = db.column("R", "A1").values
    return sorted(values[(values >= low) & (values < high)].tolist())


@pytest.mark.parametrize("strategy", ["adaptive", "holistic"])
def test_window_of_known_bounds_makes_no_pass(strategy, passes):
    db = fresh_db()
    frontend = ServingFrontend(db, make_strategy(strategy, db))
    frontend.add_client("a")
    frontend.add_client("b")
    _serve(frontend, "a", [(1_000, 5_000_000), (20_000_000, 30_000_000)])
    assert len(passes) == 1
    # Another client's window over the same bounds: fresh to its own
    # shadow map, but every position is known.
    results = _serve(
        frontend, "b", [(20_000_000, 30_000_000), (1_000, 5_000_000)]
    )
    assert len(passes) == 1
    assert sorted(results[0].values().tolist()) == _oracle(
        db, 20_000_000, 30_000_000
    )


def test_partly_known_window_passes_only_its_unknown_ranges(passes):
    db = fresh_db()
    frontend = ServingFrontend(db, make_strategy("adaptive", db))
    frontend.add_client("a")
    _serve(frontend, "a", [(1_000, 5_000_000)])
    _serve(
        frontend,
        "a",
        [
            (1_000, 5_000_000),  # both known
            (5_000_000, 9_000_000),  # low known, high not
            (40_000_000, 50_000_000),  # neither
        ],
    )
    assert passes == [
        [(1_000, 5_000_000)],
        [(5_000_000, 9_000_000), (40_000_000, 50_000_000)],
    ]


def test_unknown_top_makes_no_pass(passes):
    db = fresh_db()
    frontend = ServingFrontend(db, make_strategy("adaptive", db))
    frontend.add_client("a")
    _serve(frontend, "a", [(7_000_000, 8_000_000)])
    # High is past every int64 key: the end of the column, no cut.
    results = _serve(frontend, "a", [(7_000_000, 1e300)])
    assert len(passes) == 1
    assert sorted(results[0].values().tolist()) == _oracle(
        db, 7_000_000, 1e300
    )


@pytest.mark.parametrize("strategy", ["adaptive", "holistic"])
def test_serving_across_a_rebuild(strategy):
    """A rebuild replaces the piece map and un-cracks the array; the
    remembered positions must go with it, or every warm window would
    slice an uncracked array."""
    workloads = make_closed_loop_clients(
        [A1], DOMAIN_LOW, DOMAIN_HIGH,
        clients=2, queries_per_client=8, seed=11,
    )
    db = fresh_db()
    kernel = make_strategy(strategy, db)
    frontend = ServingFrontend(db, kernel, depth=4)
    lanes = {
        w.client: recorded(frontend.add_client(w.client)) for w in workloads
    }
    collected: dict[str, list] = {name: [] for name in lanes}
    for round_ in range(2):
        for workload in workloads:
            frontend.submit(workload.client, workload.queries)
        while entries := frontend.former.next_window():
            for entry, result in zip(entries, frontend.serve_window(entries)):
                collected[entry.client].append(result)
                query = entry.query
                assert sorted(result.values().tolist()) == _oracle(
                    db, query.low, query.high
                ), f"round {round_}: {query}"
        if round_ == 0:
            kernel.index_for(A1).rebuild()
    for workload in workloads:
        solo = solo_baseline(strategy, workload.queries * 2)
        served = lane_state(lanes[workload.client], collected[workload.client])
        assert served == solo
    kernel.index_for(A1).check_invariants()


def test_served_views_follow_a_widened_column():
    """Widening replaces the int32 cracker column; a warm served window
    must slice the new int64 array, not a cached view of the old one."""
    db = fresh_db()
    kernel = make_strategy("adaptive", db)
    frontend = ServingFrontend(db, kernel)
    frontend.add_client("a")
    ranges = [(1_000, 5_000_000), (20_000_000, 30_000_000)]
    _serve(frontend, "a", ranges)
    _serve(frontend, "a", ranges)  # warm: caches the views
    index = kernel.index_for(A1)
    assert index.values.dtype == np.int32
    index.ensure_values_fit(np.array([2**40]))
    assert index.values.dtype == np.int64
    for (low, high), result in zip(ranges, _serve(frontend, "a", ranges)):
        values = result.values()
        assert values.dtype == np.int64
        assert np.shares_memory(values, index.values)
        assert sorted(values.tolist()) == _oracle(db, low, high)
