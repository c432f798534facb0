"""End-to-end correctness gate: batched == sequential (ISSUE 4).

Each scenario runs the same query stream through the **whole session
loop** -- strategy dispatch, cracking, pending-update consultation,
per-query accounting -- at several window sizes: ``1`` is the classic
one-query-at-a-time loop, larger windows go through
:meth:`Session.run_batch`'s shared-work pipeline.

Every scenario emits a *semantic fingerprint* (final virtual clock
reading, cumulative response time, result-row total, crack counts and
a hash of all piece maps).  Batched execution is accounting-replay
equivalent to sequential execution, so fingerprints must be identical
across window sizes of one strategy -- ``holistic_workers`` included,
whose idle windows the tuning worker pool drains; the suite verifies
that on every run.  How fast the loop is, is ``perfbench``'s question
(``warm_steady``, ``burst_idle_workers``).

Usage::

    python -m repro.bench e2e             # 200k rows, 16k queries
    python -m repro.bench e2e --quick     # CI-sized run
    python -m repro.bench e2e --quick --check BENCH_e2e_quick.json

``--out`` writes the JSON document; ``--check`` compares it with a
committed one and exits non-zero on any fingerprint divergence.
"""

from __future__ import annotations

import numpy as np

from repro.bench.harness import ScenarioResult, Suite, piece_map_sha256
from repro.engine.query import RangeQuery
from repro.simtime.clock import SimClock
from repro.storage.catalog import ColumnRef
from repro.storage.database import Database
from repro.storage.loader import build_paper_table
from repro.workload.stream import IdleEvent, QueryEvent, QueryStream

DEFAULT_ROWS = 200_000
DEFAULT_QUERIES = 16_000
QUICK_ROWS = 50_000
QUICK_QUERIES = 1_000

#: Window sizes of the sweep; 1 is the sequential baseline.
BATCH_SIZES = (1, 8, 64)

_COLUMNS = 2
_VALUE_LOW = 1
_VALUE_HIGH = 100_000_000
_SELECTIVITY = 0.001

#: The workload models a production mix: most queries are
#: *parameterized* -- predicates snapped to a finite grid of prepared
#: bounds (dashboards, templated reports), the classic burst-of-
#: similar-selects scenario batching targets -- and the rest explore
#: uniformly (ad-hoc analysis).
_GRID_POINTS = 320
_GRID_FRACTION = 0.95

#: Steady-state trickle-update delta store: every query consults the
#: per-column pending sets (satellite: vectorized ``apply_pending``);
#: sized so a realistic minority of queries overlap a pending entry.
_PENDING_INSERTS = 50
_PENDING_DELETES = 25

#: The holistic+workers scenario interleaves one idle window (drained
#: by the worker pool) every this many queries.
_WORKER_IDLE_EVERY = 256
_WORKER_IDLE_ACTIONS = 64


def strategy_options(key: str, seed: int) -> tuple[str, dict[str, object]]:
    if key == "scan":
        return "scan", {}
    if key == "adaptive":
        return "adaptive", {}
    if key == "holistic":
        return "holistic", {"seed": seed}
    if key == "holistic_workers":
        return "holistic", {"seed": seed, "num_workers": 2}
    raise ValueError(f"unknown bench strategy {key!r}")


def _build_events(key: str, rows: int, queries: int, seed: int) -> QueryStream:
    rng = np.random.default_rng(seed + 1)
    span = _VALUE_HIGH - _VALUE_LOW
    width = span * _SELECTIVITY
    step = span / _GRID_POINTS
    columns = rng.integers(1, _COLUMNS + 1, size=queries)
    uniform_lows = rng.uniform(_VALUE_LOW, _VALUE_HIGH - width, size=queries)
    grid_lows = _VALUE_LOW + (
        rng.integers(0, _GRID_POINTS - 2, size=queries) * step
    )
    parameterized = rng.random(size=queries) < _GRID_FRACTION
    lows = np.where(parameterized, grid_lows, uniform_lows)
    events = []
    with_idle = key == "holistic_workers"
    for i in range(queries):
        ref = ColumnRef("R", f"A{int(columns[i])}")
        low = float(lows[i])
        events.append(QueryEvent(RangeQuery(ref, low, low + width)))
        if with_idle and (i + 1) % _WORKER_IDLE_EVERY == 0:
            events.append(IdleEvent(actions=_WORKER_IDLE_ACTIONS))
    return QueryStream(events)


def fresh_trickle_db(rows: int, seed: int) -> Database:
    """The paper table with a steady pending set in each delta store.

    Models the paper's trickle-update scenario in steady state: the
    delta store holds updates that have not been merged yet, so every
    query pays a pending-updates consultation (and in-range queries a
    merge) -- the path the batched pipeline consults once per column
    per window.  ``bench serve`` runs over the same database.
    """
    db = Database(clock=SimClock())
    db.add_table(build_paper_table(rows=rows, columns=_COLUMNS, seed=seed))
    rng = np.random.default_rng(seed + 2)
    table = db.table("R")
    for c in range(1, _COLUMNS + 1):
        column = f"A{c}"
        pending = table.updates_for(column)
        pending.stage_inserts(
            rng.integers(
                _VALUE_LOW, _VALUE_HIGH + 1, size=_PENDING_INSERTS
            )
        )
        values = db.column("R", column).values
        positions = rng.integers(0, rows, size=_PENDING_DELETES)
        pending.stage_deletes(positions, values[positions])
    return db


def _session_fingerprint(session) -> dict[str, object]:
    """Semantic end-state of one scenario run.

    Covers the session accounting (virtual clock, cumulative response,
    result rows) and, for cracking strategies, every index's piece-map
    state -- the quantities the batched pipeline promises to keep
    bit-for-bit identical to sequential execution.
    """
    report = session.report
    indexes = getattr(session.strategy, "indexes", None) or {}
    state = piece_map_sha256(
        (repr(ref), index.piece_map.cuts(), index.piece_map.pivots())
        for ref, index in sorted(indexes.items(), key=lambda kv: repr(kv[0]))
    )
    crack_count = sum(index.crack_count for index in indexes.values())
    tape_records = sum(len(index.tape) for index in indexes.values())
    return {
        "queries": report.query_count,
        "result_rows": int(
            sum(record.result_count for record in report.queries)
        ),
        "virtual_now": repr(float(session.clock.now())),
        "total_response_s": repr(float(report.total_response_s)),
        "crack_count": crack_count,
        "tape_records": tape_records,
        "state_sha256": state,
    }


def _run_scenario(
    key: str, batch: int, rows: int, queries: int, seed: int
) -> ScenarioResult:
    strategy, options = strategy_options(key, seed)
    db = fresh_trickle_db(rows, seed)
    stream = _build_events(key, rows, queries, seed)
    session = db.session(strategy, **options)
    if batch == 1:
        stream.run(session)
    else:
        stream.run_windowed(session, batch)
    return ScenarioResult(
        f"{key}/batch{batch}",
        queries,
        "queries",
        _session_fingerprint(session),
    )


def run_e2e(
    rows: int = DEFAULT_ROWS,
    queries: int = DEFAULT_QUERIES,
    seed: int = 42,
    mode: str = "full",
    batch_sizes: tuple[int, ...] = BATCH_SIZES,
    strategies: tuple[str, ...] = (
        "scan",
        "adaptive",
        "holistic",
        "holistic_workers",
    ),
) -> dict[str, object]:
    """Run the full sweep once; return the JSON-ready document."""
    scenarios = {
        f"{key}/batch{batch}": _run_scenario(key, batch, rows, queries, seed)
        for key in strategies
        for batch in batch_sizes
    }
    sequential = batch_sizes[0]
    equivalence = {
        key: all(
            scenarios[f"{key}/batch{batch}"].fingerprint
            == scenarios[f"{key}/batch{sequential}"].fingerprint
            for batch in batch_sizes
        )
        for key in strategies
    }
    return {
        "schema": "e2e-v2",
        "config": {
            "rows": rows,
            "queries": queries,
            "columns": _COLUMNS,
            "seed": seed,
            "mode": mode,
            "batch_sizes": list(batch_sizes),
        },
        "scenarios": {
            name: result.as_dict() for name, result in scenarios.items()
        },
        "batch_equals_sequential": equivalence,
    }


def e2e_text(result: dict[str, object]) -> str:
    """Human-readable rendering of an e2e run."""
    config = result["config"]
    lines = [
        "End-to-end batch == sequential gate "
        f"({config['rows']:,} rows x {config['columns']} columns, "
        f"{config['queries']:,} queries, mode={config['mode']})",
        f"{'scenario':<26} {'result rows':>12} {'cracks':>8} "
        f"{'virtual response s':>20}",
    ]
    for name, data in result["scenarios"].items():
        fingerprint = data["fingerprint"]
        lines.append(
            f"{name:<26} {fingerprint['result_rows']:>12,} "
            f"{fingerprint['crack_count']:>8,} "
            f"{float(fingerprint['total_response_s']):>20.6f}"
        )
    lines.append("")
    lines.append(
        "batch == sequential fingerprints: "
        + ", ".join(
            f"{key}={'yes' if ok else 'NO'}"
            for key, ok in result.get("batch_equals_sequential", {}).items()
        )
    )
    return "\n".join(lines)


def _gate(document: dict[str, object]) -> list[str]:
    """In-run correctness: batched must fingerprint like sequential."""
    return [
        f"{key}: batched fingerprint diverged from sequential "
        "within this run"
        for key, ok in document.get("batch_equals_sequential", {}).items()
        if not ok
    ]


SUITE = Suite(
    name="e2e",
    run=run_e2e,
    text=e2e_text,
    gate=_gate,
    full_sizes=(DEFAULT_ROWS, DEFAULT_QUERIES),
    quick_sizes=(QUICK_ROWS, QUICK_QUERIES),
)
