"""Concurrent-serving correctness gate: serve == solo.

Where ``e2e`` fingerprints one session's query loop, this suite checks
the **multi-tenant** case: N concurrent clients served by one shared
kernel through the cross-session window former, against the same N
clients run as sequential solo sessions, each on its own fresh kernel.

Every serving scenario emits one *semantic fingerprint per client*
(query/result totals, cumulative response time, lane clock reading and
a hash of the client's piece-map trajectory) and the suite verifies
each equals the fingerprint of that client's solo run -- the serving
front-end's bit-for-bit invariant.  How fast serving is, is
``perfbench``'s question (``serve_clients``).

Usage::

    python -m repro.bench serve            # 200k rows, 2k queries/client
    python -m repro.bench serve --quick    # CI-sized run
    python -m repro.bench serve --quick --check BENCH_serve_quick.json

``--out`` writes the JSON document; ``--check`` compares it with a
committed one and exits non-zero on any fingerprint divergence.
"""

from __future__ import annotations

from repro.bench.e2e import fresh_trickle_db, strategy_options
from repro.bench.harness import ScenarioResult, Suite, piece_map_sha256
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

_STRATEGIES = ("adaptive", "holistic")


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
        "state_sha256": state,
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
        int(report.result_rows),
        piece_maps,
    )


def _lane_fingerprint(lane) -> dict[str, object]:
    report = lane.report
    return _fingerprint(
        report.total_response_s,
        lane.clock.now(),
        report.query_count,
        int(report.result_rows),
        lane.shadow_state(),
    )


def _run_solo(
    key: str, clients: int, rows: int, queries: int, seed: int
) -> ScenarioResult:
    """N sequential solo sessions, each on its own fresh kernel."""
    strategy, options = strategy_options(key, seed)
    workloads = _workloads(clients, queries, seed)
    fingerprints: dict[str, dict[str, object]] = {}
    for workload in workloads:
        db = fresh_trickle_db(rows, seed)
        session = db.session(strategy, **options)
        for query in workload.queries:
            session.run_query(query)
        fingerprints[workload.client] = _solo_fingerprint(session, db.clock)
    return ScenarioResult(
        f"{key}/solo/clients{clients}",
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
    report = frontend.run()
    return ScenarioResult(
        f"{key}/serve/clients{clients}",
        clients * queries,
        "queries",
        extra={
            "fingerprints": {
                name: _lane_fingerprint(lane) for name, lane in lanes.items()
            },
            "windows": report.windows,
        },
    )


def run_serve(
    rows: int = DEFAULT_ROWS,
    queries_per_client: int = DEFAULT_QUERIES_PER_CLIENT,
    seed: int = 42,
    mode: str = "full",
    client_counts: tuple[int, ...] | None = None,
    strategies: tuple[str, ...] = _STRATEGIES,
) -> dict[str, object]:
    """Run the sweep once; return the JSON-ready document."""
    if client_counts is None:
        client_counts = (
            QUICK_CLIENT_COUNTS if mode == "quick" else CLIENT_COUNTS
        )
    scenarios: dict[str, ScenarioResult] = {}
    equivalence: dict[str, bool] = {}
    for key in strategies:
        for clients in client_counts:
            solo = _run_solo(key, clients, rows, queries_per_client, seed)
            scenarios[solo.name] = solo
            serve = _run_serve(key, clients, rows, queries_per_client, seed)
            scenarios[serve.name] = serve
            equivalence[serve.name] = (
                serve.extra["fingerprints"] == solo.extra["fingerprints"]
            )
    return {
        "schema": "serve-v2",
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
        "serve_equals_solo": equivalence,
    }


def serve_text(result: dict[str, object]) -> str:
    """Human-readable rendering of a serve run."""
    config = result["config"]
    lines = [
        "Concurrent serving serve == solo gate "
        f"({config['rows']:,} rows x {config['columns']} columns, "
        f"{config['queries_per_client']:,} queries/client, "
        f"depth={config['window_depth']}, mode={config['mode']})",
        f"{'scenario':<34} {'queries':>8} {'windows':>8} {'== solo':>8}",
    ]
    verdicts = result.get("serve_equals_solo", {})
    for name, data in result["scenarios"].items():
        verdict = verdicts.get(name)
        lines.append(
            f"{name:<34} {data['ops']:>8,} {data.get('windows', '--'):>8} "
            f"{'--' if verdict is None else 'yes' if verdict else 'NO':>8}"
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
    full_sizes=(DEFAULT_ROWS, DEFAULT_QUERIES_PER_CLIENT),
    quick_sizes=(QUICK_ROWS, QUICK_QUERIES_PER_CLIENT),
)
