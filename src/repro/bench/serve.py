"""Concurrent-serving wall-clock benchmark (ISSUE 5).

Where ``e2e`` measures one session's batched loop, this harness
measures the **multi-tenant** case: N concurrent clients served by one
shared kernel through the cross-session window former, against the
obvious baseline -- the same N clients run as sequential solo
sessions, each on its own fresh kernel.

Every serving scenario emits one *semantic fingerprint per client*
(query/result totals, cumulative response time, lane clock reading and
a hash of the client's piece-map trajectory) and the harness verifies
each equals the fingerprint of that client's solo run -- the serving
front-end's bit-for-bit invariant -- turning the speedup table into a
correctness proof, exactly as ``e2e`` does for one-session batching.

Reported per scenario: wall seconds, aggregate queries/s, and for
serving runs the p50/p99 per-query latency under the batch-service
model (every query in a window waits for its whole window).

Usage::

    python -m repro.bench serve            # 200k rows, 2k queries/client
    python -m repro.bench serve --quick    # CI-sized run
    python -m repro.bench serve --check BENCH_serve_quick.json

Results land in ``BENCH_serve.json`` (``--out`` to change); ``--check``
compares against a committed baseline and exits non-zero on a >2x
throughput regression or any fingerprint divergence.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.e2e import fresh_trickle_db, strategy_options
from repro.bench.harness import (
    ScenarioResult,
    Suite,
    piece_map_sha256,
    record_best,
)
from repro.engine.session import make_strategy
from repro.serving import ServingFrontend
from repro.storage.catalog import ColumnRef
from repro.workload.multiclient import ClientWorkload, make_closed_loop_clients

DEFAULT_ROWS = 200_000
DEFAULT_QUERIES_PER_CLIENT = 2_000
QUICK_ROWS = 50_000
QUICK_QUERIES_PER_CLIENT = 250

#: Concurrent client counts of the sweep; 1 shows the single-tenant
#: floor, the top count is the headline multi-tenant comparison.
CLIENT_COUNTS = (1, 2, 8)
QUICK_CLIENT_COUNTS = (1, 8)

#: Queries a client keeps in flight per window (closed loop).
WINDOW_DEPTH = 16

_COLUMNS = 2
_VALUE_LOW = 1
_VALUE_HIGH = 100_000_000
_SELECTIVITY = 0.001
_GRID_POINTS = 320
_GRID_FRACTION = 0.95

_STRATEGIES = ("adaptive", "holistic", "holistic_workers")


def _workloads(clients: int, queries: int, seed: int) -> list[ClientWorkload]:
    refs = [ColumnRef("R", f"A{c}") for c in range(1, _COLUMNS + 1)]
    return make_closed_loop_clients(
        refs,
        _VALUE_LOW,
        _VALUE_HIGH,
        clients=clients,
        queries_per_client=queries,
        selectivity=_SELECTIVITY,
        grid_points=_GRID_POINTS,
        grid_fraction=_GRID_FRACTION,
        seed=seed,
    )


def _fingerprint(
    responses_total: float,
    clock_now: float,
    queries: int,
    result_rows: int,
    piece_maps: dict[tuple[str, str], tuple[list, list]],
) -> dict[str, object]:
    # Keys are unique, so sorting the items never compares the maps.
    state = piece_map_sha256(
        (
            (f"{table}.{column}", cuts, pivots)
            for (table, column), (pivots, cuts) in sorted(piece_maps.items())
        ),
        pivots_first=True,
    )
    return {
        "queries": queries,
        "result_rows": result_rows,
        "total_response_s": repr(float(responses_total)),
        "lane_now": repr(float(clock_now)),
        "state_sha256": state.hexdigest(),
    }


def _solo_fingerprint(session, clock) -> dict[str, object]:
    report = session.report
    indexes = getattr(session.strategy, "indexes", {})
    piece_maps = {
        (ref.table, ref.column): (
            index.piece_map.pivots(),
            index.piece_map.cuts(),
        )
        for ref, index in indexes.items()
    }
    return _fingerprint(
        report.total_response_s,
        clock.now(),
        report.query_count,
        int(sum(record.result_count for record in report.queries)),
        piece_maps,
    )


def _lane_fingerprint(lane) -> dict[str, object]:
    report = lane.report
    return _fingerprint(
        report.total_response_s,
        lane.clock.now(),
        report.query_count,
        int(sum(record.result_count for record in report.queries)),
        lane.shadow_state(),
    )


def _run_solo(
    key: str, clients: int, rows: int, queries: int, seed: int
) -> ScenarioResult:
    """N sequential solo sessions, each on its own fresh kernel."""
    strategy, options = strategy_options(key, seed)
    workloads = _workloads(clients, queries, seed)
    fingerprints: dict[str, dict[str, object]] = {}
    wall = 0.0
    for workload in workloads:
        db = fresh_trickle_db(rows, seed)
        session = db.session(strategy, **options)
        run_query = session.run_query
        started = time.perf_counter()
        for query in workload.queries:
            run_query(query)
        wall += time.perf_counter() - started
        fingerprints[workload.client] = _solo_fingerprint(session, db.clock)
    return ScenarioResult(
        f"{key}/solo/clients{clients}",
        wall,
        clients * queries,
        "queries",
        extra={"fingerprints": fingerprints},
    )


def _run_serve(
    key: str, clients: int, rows: int, queries: int, seed: int
) -> ScenarioResult:
    """One shared kernel serving all N clients concurrently."""
    strategy, options = strategy_options(key, seed)
    workloads = _workloads(clients, queries, seed)
    db = fresh_trickle_db(rows, seed)
    kernel = make_strategy(strategy, db, **options)
    frontend = ServingFrontend(db, kernel, depth=WINDOW_DEPTH)
    lanes = {
        workload.client: frontend.add_client(
            workload.client, workload.queries
        )
        for workload in workloads
    }
    workers = key == "holistic_workers"
    started = time.perf_counter()
    if workers:
        kernel.start_workers()
        kernel.submit_tuning(clients * queries // 4)
    report = frontend.run()
    if workers:
        kernel.drain_workers()
        kernel.stop_workers()
    wall = time.perf_counter() - started
    latencies = np.asarray(report.query_latencies_s())
    return ScenarioResult(
        f"{key}/serve/clients{clients}",
        wall,
        clients * queries,
        "queries",
        extra={
            "fingerprints": {
                name: _lane_fingerprint(lane) for name, lane in lanes.items()
            },
            "latency_p50_ms": round(
                float(np.percentile(latencies, 50)) * 1e3, 4
            ),
            "latency_p99_ms": round(
                float(np.percentile(latencies, 99)) * 1e3, 4
            ),
            "windows": report.windows,
        },
    )


def run_serve(
    rows: int = DEFAULT_ROWS,
    queries_per_client: int = DEFAULT_QUERIES_PER_CLIENT,
    seed: int = 42,
    mode: str = "full",
    repeats: int = 3,
    client_counts: tuple[int, ...] | None = None,
    strategies: tuple[str, ...] = _STRATEGIES,
) -> dict[str, object]:
    """Run the sweep; return the JSON-ready document.

    Repeats are interleaved across the whole matrix (best wall clock
    per scenario, fingerprints must agree across repeats).  The
    ``holistic_workers`` serving scenario's per-client fingerprints are
    compared against the plain ``holistic`` solo run: background
    tuning must not move a single client's accounting.
    """
    if client_counts is None:
        client_counts = (
            QUICK_CLIENT_COUNTS if mode == "quick" else CLIENT_COUNTS
        )
    scenarios: dict[str, ScenarioResult] = {}
    for _ in range(max(1, repeats)):
        solo_measured: set[str] = set()
        for key in strategies:
            solo_key = "holistic" if key == "holistic_workers" else key
            for clients in client_counts:
                runs: list[tuple] = []
                # The workers variant's baseline is the plain holistic
                # solo run; measure each solo baseline once per repeat
                # even when its strategy is not in the sweep itself.
                solo_name = f"{solo_key}/solo/clients{clients}"
                if solo_name not in solo_measured:
                    solo_measured.add(solo_name)
                    runs.append((_run_solo, solo_key))
                runs.append((_run_serve, key))
                for runner, run_key in runs:
                    record_best(
                        scenarios,
                        runner(
                            run_key, clients, rows, queries_per_client, seed
                        ),
                    )
    speedups: dict[str, dict[str, float]] = {}
    equivalence: dict[str, bool] = {}
    for key in strategies:
        solo_key = "holistic" if key == "holistic_workers" else key
        per_count: dict[str, float] = {}
        for clients in client_counts:
            solo = scenarios[f"{solo_key}/solo/clients{clients}"]
            serve = scenarios[f"{key}/serve/clients{clients}"]
            per_count[f"clients{clients}"] = round(
                serve.throughput / solo.throughput, 3
            )
            equivalence[serve.name] = (
                serve.extra["fingerprints"] == solo.extra["fingerprints"]
            )
        speedups[key] = per_count
    return {
        "schema": "serve-v1",
        "config": {
            "rows": rows,
            "queries_per_client": queries_per_client,
            "columns": _COLUMNS,
            "seed": seed,
            "mode": mode,
            "client_counts": list(client_counts),
            "window_depth": WINDOW_DEPTH,
        },
        "scenarios": {
            name: result.as_dict()
            for name, result in sorted(scenarios.items())
        },
        "speedup_serve_vs_solo": speedups,
        "serve_equals_solo": equivalence,
    }


def serve_text(result: dict[str, object]) -> str:
    """Human-readable rendering of a serve run."""
    config = result["config"]
    lines = [
        "Concurrent serving benchmark "
        f"({config['rows']:,} rows x {config['columns']} columns, "
        f"{config['queries_per_client']:,} queries/client, "
        f"depth={config['window_depth']}, mode={config['mode']})",
        f"{'scenario':<30} {'wall s':>9} {'queries/s':>11} "
        f"{'p50 ms':>8} {'p99 ms':>8} {'vs solo':>8}",
    ]
    speedups = result.get("speedup_serve_vs_solo", {})
    for name, data in result["scenarios"].items():
        strategy, kind, clients = name.split("/")
        ratio = ""
        if kind == "serve":
            value = speedups.get(strategy, {}).get(clients)
            ratio = f"{value:.2f}x" if value is not None else ""
        p50 = data.get("latency_p50_ms")
        p99 = data.get("latency_p99_ms")
        lines.append(
            f"{name:<30} {data['wall_s']:>9.3f} "
            f"{data['throughput']:>11.1f} "
            f"{p50 if p50 is not None else '--':>8} "
            f"{p99 if p99 is not None else '--':>8} {ratio:>8}"
        )
    lines.append("")
    lines.append(
        "serve == solo fingerprints: "
        + ", ".join(
            f"{name.split('/')[0]}@{name.split('/')[2]}="
            f"{'yes' if ok else 'NO'}"
            for name, ok in result.get("serve_equals_solo", {}).items()
        )
    )
    return "\n".join(lines)


def _gate(document: dict[str, object]) -> list[str]:
    """In-run correctness: every served client must fingerprint like
    its solo run."""
    return [
        f"{name}: per-client fingerprints diverged from the solo "
        "baselines within this run"
        for name, ok in document.get("serve_equals_solo", {}).items()
        if not ok
    ]


SUITE = Suite(
    name="serve",
    run=run_serve,
    text=serve_text,
    gate=_gate,
    semantic_keys=(
        "queries",
        "result_rows",
        "total_response_s",
        "lane_now",
        "state_sha256",
    ),
    full_sizes=(DEFAULT_ROWS, DEFAULT_QUERIES_PER_CLIENT),
    quick_sizes=(QUICK_ROWS, QUICK_QUERIES_PER_CLIENT),
)
