"""Wall-clock microbenchmark of the refinement hot path.

Unlike the paper-artefact benches (which report *virtual* seconds from
the calibrated cost model), this harness measures genuine wall-clock
throughput of the cracking hot path: range selects that crack, batched
idle tuning through :meth:`CrackerIndex.ensure_cuts`, and the parallel
tuning worker pool.  It establishes the perf trajectory later PRs are
judged against (ROADMAP: "as fast as the hardware allows").

Every scenario also emits a *fingerprint* -- crack count, final virtual
clock reading, tape record count and a hash of the piece-map state --
so an optimized kernel can prove it is semantically identical to the
implementation it replaced: same splits, same virtual-clock totals,
same tape contents.

Usage::

    python -m repro.bench hotpath                  # 1M rows, 5k queries
    python -m repro.bench hotpath --quick          # CI-sized run
    python -m repro.bench hotpath --rows 10000000  # the big sweep
    python -m repro.bench hotpath --check BENCH_hotpath.json

The result is written to ``BENCH_hotpath.json`` (``--out`` to change).
``--check`` compares the fresh run against a committed baseline file
and exits non-zero when any scenario regressed by more than
``harness.REGRESSION_LIMIT`` in throughput, or when a fingerprint
diverged.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.harness import (
    ScenarioResult,
    Suite,
    piece_map_sha256,
    record_best,
)
from repro.cracking.index import CrackerIndex
from repro.simtime.clock import SimClock
from repro.storage.loader import generate_uniform_column

#: Default sweep sizes (the acceptance sweep of ISSUE 3).
DEFAULT_ROWS = 1_000_000
DEFAULT_QUERIES = 5_000
QUICK_ROWS = 100_000
QUICK_QUERIES = 1_000

_VALUE_LOW = 0
_VALUE_HIGH = 100_000_000


def _fingerprint(index: CrackerIndex) -> dict[str, object]:
    """Identity fingerprint of one index after a deterministic run.

    ``state_sha256`` covers the piece map (cuts + pivots) -- the
    semantically meaningful state, stable across machines and numpy
    versions.  ``layout_sha256`` additionally covers the physical
    element order, which is unspecified inside a piece (the unstable
    partition kernel); it pins determinism within one environment but
    is excluded from cross-environment regression checks.
    """
    pieces = index.piece_map
    state = piece_map_sha256([("", pieces.cuts(), pieces.pivots())])
    layout = state.copy()
    layout.update(index.values.tobytes())
    return {
        "crack_count": index.crack_count,
        "virtual_now": repr(float(index.clock.now())),
        "tape_records": len(index.tape),
        "state_sha256": state.hexdigest(),
        "layout_sha256": layout.hexdigest(),
    }


def _query_bounds(
    rng: np.random.Generator, queries: int
) -> list[tuple[float, float]]:
    """Deterministic random range predicates (0.1% selectivity)."""
    span = _VALUE_HIGH - _VALUE_LOW
    width = span * 0.001
    lows = rng.uniform(_VALUE_LOW, _VALUE_HIGH - width, size=queries)
    return [(float(low), float(low + width)) for low in lows]


def _bench_serial_select(
    rows: int, queries: int, seed: int, track_rowids: bool
) -> ScenarioResult:
    column = generate_uniform_column(
        "A1", rows=rows, low=_VALUE_LOW, high=_VALUE_HIGH, seed=seed
    )
    index = CrackerIndex(
        column, clock=SimClock(), track_rowids=track_rowids
    )
    bounds = _query_bounds(np.random.default_rng(seed + 1), queries)
    total = 0
    started = time.perf_counter()
    for low, high in bounds:
        view = index.select_range(low, high)
        total += view.count
    wall = time.perf_counter() - started
    name = "serial_select_rowids" if track_rowids else "serial_select"
    fingerprint = _fingerprint(index)
    fingerprint["result_rows"] = total
    return ScenarioResult(name, wall, queries, "queries", fingerprint)


def _bench_batch_tuning(
    rows: int, cracks: int, seed: int
) -> ScenarioResult:
    from repro.holistic.tuner import AuxiliaryTuner

    column = generate_uniform_column(
        "A1", rows=rows, low=_VALUE_LOW, high=_VALUE_HIGH, seed=seed
    )
    index = CrackerIndex(column, clock=SimClock())
    tuner = AuxiliaryTuner(seed=seed + 2)
    batch = 64
    remaining = cracks
    started = time.perf_counter()
    while remaining > 0:
        tuner.perform_batch(index, min(batch, remaining))
        remaining -= batch
    wall = time.perf_counter() - started
    return ScenarioResult(
        "batch_tuning", wall, cracks, "crack attempts", _fingerprint(index)
    )


def _bench_worker_pool(
    rows: int, actions: int, seed: int, workers: int = 2
) -> ScenarioResult:
    from repro.storage.database import Database
    from repro.storage.loader import build_paper_table

    db = Database(clock=SimClock())
    db.add_table(build_paper_table(rows=rows, columns=2, seed=seed))
    session = db.session("holistic", num_workers=workers, seed=seed + 3)
    started = time.perf_counter()
    session.idle(actions=actions)
    wall = time.perf_counter() - started
    # Wall-clock throughput only: the committed baselines predate
    # reproducible worker windows and carry no fingerprint to hold
    # this scenario to.
    return ScenarioResult(
        f"worker_pool_{workers}", wall, actions, "tuning actions", {}
    )


def run_hotpath(
    rows: int = DEFAULT_ROWS,
    queries: int = DEFAULT_QUERIES,
    seed: int = 42,
    mode: str = "full",
    repeats: int = 3,
) -> dict[str, object]:
    """Run every hot-path scenario; return the JSON-ready document."""
    scenarios: dict[str, ScenarioResult] = {}
    for _ in range(max(1, repeats)):
        record_best(
            scenarios, _bench_serial_select(rows, queries, seed, False)
        )
        record_best(
            scenarios, _bench_serial_select(rows, queries, seed, True)
        )
        record_best(scenarios, _bench_batch_tuning(rows, queries, seed))
        record_best(scenarios, _bench_worker_pool(rows, queries, seed))
    return {
        "schema": "hotpath-v1",
        "config": {
            "rows": rows,
            "queries": queries,
            "seed": seed,
            "mode": mode,
        },
        "scenarios": {
            name: result.as_dict() for name, result in scenarios.items()
        },
    }


def hotpath_text(result: dict[str, object]) -> str:
    """Human-readable rendering of a hotpath run."""
    config = result["config"]
    lines = [
        "Hot-path wall-clock microbenchmark "
        f"({config['rows']:,} rows, {config['queries']:,} ops, "
        f"mode={config['mode']})",
        f"{'scenario':<24} {'wall s':>10} {'ops/s':>12}  unit",
    ]
    for name, data in result["scenarios"].items():
        lines.append(
            f"{name:<24} {data['wall_s']:>10.3f} "
            f"{data['throughput']:>12.1f}  {data['unit']}"
        )
    if "baseline" in result:
        lines.append("")
        lines.append("vs committed baseline:")
        for name, ratio in result.get("speedup_vs_baseline", {}).items():
            lines.append(f"  {name:<22} {ratio:>6.2f}x")
    return "\n".join(lines)


SUITE = Suite(
    name="hotpath",
    run=run_hotpath,
    text=hotpath_text,
    gate=lambda document: [],
    # layout_sha256 depends on numpy's introselect internals, so only
    # the semantic keys gate across environments.
    semantic_keys=(
        "crack_count",
        "virtual_now",
        "tape_records",
        "state_sha256",
        "result_rows",
    ),
    full_sizes=(DEFAULT_ROWS, DEFAULT_QUERIES),
    quick_sizes=(QUICK_ROWS, QUICK_QUERIES),
)
