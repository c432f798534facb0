"""Shared fixtures and helpers for the serving front-end tests."""

from __future__ import annotations

import numpy as np

from repro.simtime.clock import SimClock
from repro.storage.database import Database
from repro.storage.loader import build_paper_table
from tests.conftest import query_records, recorded

ROWS = 8_000
COLUMNS = 2
DOMAIN_LOW = 1
DOMAIN_HIGH = 100_000_000


def fresh_db(seed: int = 42, pending: bool = False) -> Database:
    """A deterministic two-column database, optionally with a staged
    trickle-update delta store (the steady-state every query consults)."""
    db = Database(clock=SimClock())
    db.add_table(build_paper_table(rows=ROWS, columns=COLUMNS, seed=seed))
    if pending:
        rng = np.random.default_rng(seed + 2)
        table = db.table("R")
        for c in range(1, COLUMNS + 1):
            column = f"A{c}"
            store = table.updates_for(column)
            store.stage_inserts(
                rng.integers(DOMAIN_LOW, DOMAIN_HIGH + 1, size=30)
            )
            values = db.column("R", column).values
            positions = rng.integers(0, ROWS, size=15)
            store.stage_deletes(positions, values[positions])
    return db


def _accounting(report) -> dict:
    records = query_records(report)
    return {
        "responses": [r.response_s for r in records],
        "counts": [r.result_count for r in records],
        "totals": (
            report.query_count,
            report.total_response_s,
            int(report.result_rows),
        ),
    }


def solo_baseline(
    strategy: str,
    queries,
    seed: int = 42,
    pending: bool = False,
    **options,
):
    """Run one client's stream alone against a fresh kernel.

    Returns the quantities the serving front-end promises to keep
    bit-identical per client: per-query response times and result
    counts, the report's totals, the final clock reading, sorted
    result values, and the per-column piece-map trajectory.
    """
    db = fresh_db(seed=seed, pending=pending)
    session = recorded(db.session(strategy, **options))
    results = [session.run_query(query) for query in queries]
    indexes = getattr(session.strategy, "indexes", {})
    return {
        **_accounting(session.report),
        "clock_now": db.clock.now(),
        "values": [sorted(res.values().tolist()) for res in results],
        "piece_maps": {
            (ref.table, ref.column): (
                index.piece_map.pivots(),
                index.piece_map.cuts(),
            )
            for ref, index in indexes.items()
        },
    }


def lane_state(lane, results):
    """The serving-side counterpart of :func:`solo_baseline`; the lane
    must have been served with a history sink (:func:`recorded`)."""
    return {
        **_accounting(lane.report),
        "clock_now": lane.clock.now(),
        "values": [sorted(res.values().tolist()) for res in results],
        "piece_maps": lane.shadow_state(),
    }
