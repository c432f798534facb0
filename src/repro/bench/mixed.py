"""Mixed read/write correctness gate with a differential oracle.

This suite sweeps read/write mixes from 95/5 to 50/50 and pushes every
mix through **all** of the kernel's execution paths, with sustained
inserts/deletes interleaved into the stream:

* ``adaptive/sequential`` -- per-query cracking + ``apply_pending``;
* ``adaptive/batched``   -- the shared-work batch loop (ISSUE 4);
* ``maintained/ripple``  -- ``MaintainedCrackerIndex``: delta stores
  physically consumed by ripple merges on every overlapping select;
* ``holistic/serving``   -- the multi-client serving loop (ISSUE 5),
  updates staged between windows;
* ``holistic_workers/serving`` -- the same with ``num_workers>0``
  tuning workers racing the serving loop.

Each mix also runs the naive sorted-array reference engine, and every
engine run must reproduce the reference's per-query result multisets
bit for bit (:mod:`repro.bench.oracle`).  A ``float64`` column (F1)
flows through the vectorized crack kernels in every mix.  A
COLT-vs-holistic shootout under workload drift (virtual time) closes
the suite.  How fast the mixed path is, is ``perfbench``'s question
(``mixed_rw``).

Usage::

    python -m repro.bench mixed            # 120k rows, 1.2k ops/mix
    python -m repro.bench mixed --quick    # CI-sized run
    python -m repro.bench mixed --quick --check BENCH_mixed_quick.json

``--out`` writes the JSON document; ``--check`` compares it with a
committed one and exits non-zero on any fingerprint divergence.
"""

from __future__ import annotations

from repro.bench.harness import ScenarioResult, Suite, oracle_scenario
from repro.bench.oracle import (
    OracleRun,
    reference_results,
    replay_batched,
    replay_maintained,
    replay_sequential,
    replay_serving,
)
from repro.engine.session import make_strategy
from repro.serving import ServingFrontend
from repro.simtime.clock import SimClock
from repro.storage.catalog import ColumnRef
from repro.storage.database import Database
from repro.storage.loader import (
    build_paper_table,
    generate_uniform_float_column,
)
from repro.workload.patterns import MixedPattern

DEFAULT_ROWS = 120_000
DEFAULT_OPS = 1_200
QUICK_ROWS = 40_000
QUICK_OPS = 300

#: Write share of each swept mix; 0.05 is the 95/5 read-mostly mix,
#: 0.50 the 50/50 update-heavy extreme.
MIXES = (0.05, 0.20, 0.35, 0.50)
QUICK_MIXES = (0.05, 0.50)

_COLUMNS = ("A1", "A2", "F1")
_VALUE_LOW = 1.0
_VALUE_HIGH = 100_000_000.0
_SELECTIVITY = 0.01
_BATCH_SIZE = 16
_BURST = 4
_WINDOW = 24
_CLIENTS = 2
_TUNING_ACTIONS = 400


def _fresh_db(rows: int, seed: int) -> Database:
    """R(A1, A2: int64; F1: float64) -- the float column exercises the
    crack kernels' real-valued path in every scenario."""
    db = Database(clock=SimClock())
    table = build_paper_table(rows=rows, columns=2, seed=seed)
    table.add_column(
        generate_uniform_float_column(
            "F1",
            rows=rows,
            low=_VALUE_LOW,
            high=_VALUE_HIGH,
            seed=seed + 9,
        )
    )
    db.add_table(table)
    return db


def _pattern(mix: float, ops: int, seed: int, drift: float = 0.0) -> MixedPattern:
    return MixedPattern(
        columns=list(_COLUMNS),
        domain_low=_VALUE_LOW,
        domain_high=_VALUE_HIGH,
        op_count=ops,
        write_ratio=mix,
        insert_fraction=0.5,
        batch_size=_BATCH_SIZE,
        burst=_BURST,
        drift=drift,
        selectivity=_SELECTIVITY,
        seed=seed + int(mix * 100) + int(drift * 7),
    )


def _run_mode(
    mode: str,
    mix_name: str,
    rows: int,
    seed: int,
    trace,
    expected,
    reference,
) -> ScenarioResult:
    """Execute one engine path over the trace, oracle-checked."""
    name = f"{mix_name}/{mode}"
    db = _fresh_db(rows, seed)
    if mode == "reference/naive":
        _, fingerprint = reference_results(
            db, [ColumnRef("R", c) for c in _COLUMNS], trace
        )
        run = OracleRun(fingerprint, reference)
    elif mode == "adaptive/sequential":
        run = replay_sequential(
            db, db.session("adaptive"), trace, expected, reference, name
        )
    elif mode == "adaptive/batched":
        run = replay_batched(
            db,
            db.session("adaptive"),
            trace,
            expected,
            reference,
            window=_WINDOW,
            label=name,
        )
    elif mode == "maintained/ripple":
        run = replay_maintained(db, trace, expected, reference, name)
    elif mode in ("holistic/serving", "holistic_workers/serving"):
        workers = mode == "holistic_workers/serving"
        options: dict[str, object] = {"seed": seed}
        if workers:
            options["num_workers"] = 2
        kernel = make_strategy("holistic", db, **options)
        frontend = ServingFrontend(db, kernel)
        if workers:
            kernel.start_workers()
            kernel.submit_tuning(_TUNING_ACTIONS)
        try:
            run = replay_serving(
                db,
                frontend,
                trace,
                expected,
                reference,
                clients=_CLIENTS,
                window=_WINDOW,
                label=name,
            )
        finally:
            if workers:
                kernel.drain_workers()
                kernel.stop_workers()
    else:
        raise ValueError(f"unknown mixed mode {mode!r}")
    return oracle_scenario(
        name, len(trace), run.fingerprint, run.matches_reference
    )


_MODES = (
    "reference/naive",
    "adaptive/sequential",
    "adaptive/batched",
    "maintained/ripple",
    "holistic/serving",
    "holistic_workers/serving",
)


def _run_shootout(
    strategy: str, rows: int, ops: int, seed: int, trace, expected, reference
) -> tuple[ScenarioResult, float, float]:
    """One sequential session under the drifting mixed trace; returns
    the scenario plus its virtual (total response, clock) readings."""
    name = f"drift/{strategy}/sequential"
    db = _fresh_db(rows, seed)
    session = db.session(strategy, **({"seed": seed} if strategy == "holistic" else {}))
    run = replay_sequential(db, session, trace, expected, reference, name)
    result = oracle_scenario(
        name, len(trace), run.fingerprint, run.matches_reference
    )
    return result, session.report.total_response_s, db.clock.now()


def run_mixed(
    rows: int = DEFAULT_ROWS,
    ops: int = DEFAULT_OPS,
    seed: int = 42,
    mode: str = "full",
    mixes: tuple[float, ...] | None = None,
) -> dict[str, object]:
    """Run the sweep once; return the JSON-ready document.

    Every engine scenario is oracle-checked against the serial
    reference -- a divergence raises immediately inside the driver and
    is also recorded as ``matches_reference`` for the CI gate.
    """
    if mixes is None:
        mixes = QUICK_MIXES if mode == "quick" else MIXES
    mix_names = {mix: f"mix{int(round(mix * 100)):02d}" for mix in mixes}
    # Traces and expected results are deterministic per seed: compute
    # once, reuse across modes.
    def case(pattern: MixedPattern) -> tuple:
        db0 = _fresh_db(rows, seed)
        trace = pattern.ops(db0.table("R"))
        return (trace, *reference_results(db0, pattern.refs(), trace))

    cases = {mix: case(_pattern(mix, ops, seed)) for mix in mixes}
    drift_case = case(_pattern(0.2, ops, seed, drift=1.0))

    results = [
        _run_mode(engine_mode, mix_names[mix], rows, seed, *cases[mix])
        for mix in mixes
        for engine_mode in _MODES
    ]
    shootout_virtual: dict[str, dict[str, float]] = {}
    for strategy in ("online", "holistic"):
        result, response_s, now = _run_shootout(
            strategy, rows, ops, seed, *drift_case
        )
        results.append(result)
        shootout_virtual[strategy] = {
            "virtual_total_response_s": response_s,
            "virtual_now": now,
        }
    scenarios = {result.name: result for result in results}

    matches = {
        name: result.extra["matches_reference"]
        for name, result in sorted(scenarios.items())
    }
    online = shootout_virtual["online"]["virtual_total_response_s"]
    holistic = shootout_virtual["holistic"]["virtual_total_response_s"]
    return {
        "schema": "mixed-v2",
        "config": {
            "rows": rows,
            "ops_per_mix": ops,
            "columns": list(_COLUMNS),
            "seed": seed,
            "mode": mode,
            "mixes": [round(m, 2) for m in mixes],
            "window": _WINDOW,
            "clients": _CLIENTS,
            "batch_size": _BATCH_SIZE,
            "burst": _BURST,
            "selectivity": _SELECTIVITY,
        },
        "scenarios": {
            name: result.as_dict()
            for name, result in sorted(scenarios.items())
        },
        "oracle_matches_reference": matches,
        "shootout": {
            "workload": "drifting hot window, 80/20 read/write",
            "online": {
                k: round(float(v), 6)
                for k, v in shootout_virtual["online"].items()
            },
            "holistic": {
                k: round(float(v), 6)
                for k, v in shootout_virtual["holistic"].items()
            },
            "virtual_response_ratio_online_vs_holistic": round(
                online / holistic, 3
            )
            if holistic
            else None,
        },
    }


def mixed_text(result: dict[str, object]) -> str:
    """Human-readable rendering of a mixed run."""
    config = result["config"]
    lines = [
        "Mixed read/write oracle gate "
        f"({config['rows']:,} rows x {len(config['columns'])} columns "
        f"(incl. float64 F1), {config['ops_per_mix']:,} ops/mix, "
        f"mode={config['mode']})",
        f"{'scenario':<36} {'ops':>7} {'result rows':>12} {'oracle':>9}",
    ]
    for name, data in result["scenarios"].items():
        ok = "ok" if data["matches_reference"] else "DIVERGED"
        lines.append(
            f"{name:<36} {data['ops']:>7,} "
            f"{data['fingerprint']['result_rows']:>12,} {ok:>9}"
        )
    shootout = result.get("shootout", {})
    ratio = shootout.get("virtual_response_ratio_online_vs_holistic")
    if ratio is not None:
        lines.append("")
        lines.append(
            "COLT-vs-holistic under drift: online cumulative response = "
            f"{ratio:.2f}x holistic's"
        )
    return "\n".join(lines)


def _gate(document: dict[str, object]) -> list[str]:
    """In-run correctness: every engine path must reproduce the serial
    reference."""
    return [
        f"{name}: result fingerprint diverged from the serial "
        "reference engine within this run"
        for name, ok in document.get("oracle_matches_reference", {}).items()
        if not ok
    ]


SUITE = Suite(
    name="mixed",
    run=run_mixed,
    text=mixed_text,
    gate=_gate,
    full_sizes=(DEFAULT_ROWS, DEFAULT_OPS),
    quick_sizes=(QUICK_ROWS, QUICK_OPS),
)
