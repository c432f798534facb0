"""Chaos gate: seeded fault schedules against the oracle trace.

The robustness claim of the fault plane (:mod:`repro.faults`) and the
self-healing kernel, stated as three machine-checkable gates:

* **zero wrong answers** -- every scenario replays the same mixed
  read/write trace as the fault-free run and must reproduce the
  reference per-query result multisets bit for bit, faults or not;
* **nothing silently swallowed** -- every injected fault must be
  claimed by a recovery path (``FaultPlan.unrecovered()`` empty) and
  every scenario must inject exactly the faults it armed;
* **bounded recovery** -- the supervisor retries a worker's batch at
  most once per injected fault (attempts are capped where the
  recovery paths live: ``SupervisorPolicy``, ``BackoffPolicy``).

Scenario families:

* ``serving/*`` -- the multi-client serving loop (2 oracle lanes, a
  holistic kernel; with workers, an idle window they drain after every
  served window) under worker crashes (supervised restart), repeated
  crashes driving column quarantine, poison replays
  (solo retry, then base-column scan fallback) and malformed queries
  smuggled past validation by a third "chaos" client;
* ``persist/*`` -- checkpoint / corrupt / restore / resume cycles: a
  torn array file (caught structurally, restore walks back a
  generation), a flipped bit (caught by the lazy background verifier,
  re-restore excludes the rotted generation), a garbage ``CURRENT``
  pointer (walk-back + pointer repair) and transient restore faults
  (capped-backoff retry).  The resumed run's chained result digest
  must equal the uninterrupted fault-free run's.

Together the scenarios cover all ``len(FAULT_POINTS)`` registered
fault points; the run fails if any point goes unexercised.

Usage::

    python -m repro.bench chaos            # full sizes
    python -m repro.bench chaos --quick    # CI-sized run
    python -m repro.bench chaos --quick --check BENCH_chaos_quick.json

``--out`` writes the JSON document; ``--check`` additionally gates on
fingerprint equality with a committed one.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.bench.harness import ScenarioResult, Suite, oracle_scenario
from repro.bench.oracle import reference_results, replay_serving
from repro.bench.snapshot import (
    WRITE_RATIO,
    fresh_db,
    mixed_trace,
    replay_digest,
)
from repro.engine.session import make_strategy
from repro.errors import PersistError
from repro.faults import FAULT_POINTS, FaultPlan, engaged
from repro.holistic.workers import SupervisorPolicy
from repro.persist import (
    SnapshotManager,
    list_generations,
    restore_snapshot,
)
from repro.serving import ServingFrontend
from repro.storage.catalog import ColumnRef

DEFAULT_ROWS = 60_000
DEFAULT_OPS = 600
QUICK_ROWS = 20_000
QUICK_OPS = 240

#: Three columns so the quarantine scenario can dead-letter two and
#: keep the pool alive on the third.
_COLUMNS = ("A1", "A2", "A3")
_WINDOW = 24
_CLIENTS = 2
#: Tuning actions of the idle window after every served window, plus
#: a tail window -- keeps workers busy for the whole trace so armed
#: worker fault hits are certain to occur.
_PUMP_ACTIONS = 8
_TAIL_ACTIONS = 64
#: Inject one malformed entry every Nth window in the malformed
#: scenario.
_MALFORM_EVERY = 3
#: Persist cycle shape: checkpoint cadence, and where phase one of the
#: trace ends (the corrupted generation is published a bit later, so
#: walk-back restores a strictly older cursor).
_CKPT_DIVISOR = 8


def _trace(rows: int, ops: int, seed: int):
    """``bench snapshot``'s trace shape over this suite's columns, with
    the reference engine's answers."""
    trace = mixed_trace(rows, ops, seed, _COLUMNS)
    refs = [ColumnRef("R", column) for column in _COLUMNS]
    expected, reference = reference_results(
        fresh_db(rows, seed, _COLUMNS), refs, trace
    )
    return trace, expected, reference


def _fault_summary(plan: FaultPlan, expected_injected: int) -> dict:
    summary = plan.summary()
    return {
        "expected": expected_injected,
        "injected": summary["injected"],
        "recovered": summary["recovered"],
        "unrecovered": len(plan.unrecovered()),
        "per_point": summary["per_point"],
        "events": summary["events"],
    }


# -- the serving family -------------------------------------------------------


def _serving_scenario(
    name: str,
    rows: int,
    ops: int,
    seed: int,
    case,
    arm=None,
    expected_injected: int = 0,
    workers: int = 0,
    supervisor: SupervisorPolicy | None = None,
    policy: str | None = None,
    malform_every: int = 0,
) -> ScenarioResult:
    trace, expected, reference = case
    db = fresh_db(rows, seed, _COLUMNS)
    options: dict[str, object] = {"seed": seed}
    if policy is not None:
        options["policy"] = policy
    if workers:
        options["num_workers"] = workers
        # A small cache-fit target keeps refinement candidates ranked
        # for the whole trace; at the default (8192 elements) the
        # foreground cracks exhaust the ranking within one window and
        # the armed worker faults would never reach a perform.
        options["cache_target_elements"] = 64
    kernel = make_strategy("holistic", db, **options)
    frontend = ServingFrontend(db, kernel)
    pool = kernel.worker_pool
    if supervisor is not None and pool is not None:
        pool.supervisor = supervisor
    plan = FaultPlan(seed=seed)
    if arm is not None:
        arm(plan)
    pump = (
        (lambda: kernel.exploit_idle(actions=_PUMP_ACTIONS))
        if workers
        else None
    )
    with engaged(plan):
        run = replay_serving(
            db,
            frontend,
            trace,
            expected,
            reference,
            clients=_CLIENTS,
            window=_WINDOW,
            label=name,
            malform_every=malform_every,
            pump=pump,
        )
        if workers:
            kernel.exploit_idle(actions=_TAIL_ACTIONS)
    detail: dict[str, object] = {
        "client_faults": [
            {
                "client": fault.client,
                "kind": fault.kind,
                "action": fault.action,
            }
            for fault in frontend.faults
        ],
    }
    if pool is not None:
        detail["supervisor"] = pool.supervisor_summary()
    return oracle_scenario(
        name,
        len(trace),
        run.fingerprint,
        run.matches_reference,
        faults=_fault_summary(plan, expected_injected),
        detail=detail,
    )


# -- the persist family -------------------------------------------------------


def _persist_scenario(
    name: str,
    rows: int,
    ops: int,
    seed: int,
    trace,
    baseline_digest: str,
    fault_point: str | None,
) -> ScenarioResult:
    """One checkpoint / corrupt / restore / resume cycle.

    Phase 1 replays two thirds of the trace with periodic checkpoints
    (``keep_history=True``, so older generations stay available for
    walk-back), then a fresh manager publishes one more, whole
    generation, whose largest file (a base column: a bit flipped there
    only a checksum sees) the armed tamper fault corrupts.  The restore
    path must heal -- walk back, retry, or exclude -- and the resumed
    replay's chained digest must equal the uninterrupted run's.
    """
    cut = (2 * len(trace)) // 3
    extra_ops = min(len(trace) - cut, max(len(trace) // 12, 8))
    ckpt_every = max(ops // _CKPT_DIVISOR, 20)
    with tempfile.TemporaryDirectory(prefix="chaos-persist-") as tmp:
        root = Path(tmp) / "snap"
        db = fresh_db(rows, seed, _COLUMNS)
        session = db.session("holistic", seed=seed)
        manager = SnapshotManager(
            root,
            db,
            strategy=session.strategy,
            session=session,
            keep_history=True,
        )

        def maybe_checkpoint(i: int, digest_now: str) -> None:
            if (i + 1) % ckpt_every == 0:
                manager.checkpoint(
                    extra={"cursor": i + 1, "digest": digest_now}
                )

        digest = replay_digest(
            db, session, trace, stop=cut, after_op=maybe_checkpoint
        )
        # The generation walk-back falls back to: published clean, at
        # the phase-one cursor.
        manager.checkpoint(extra={"cursor": cut, "digest": digest})
        # A little more progress so the next generation carries a
        # strictly later cursor.
        late = cut + extra_ops
        digest_late = replay_digest(db, session, trace, cut, late, digest)

        plan = FaultPlan(seed=seed)
        expected_injected = 0
        detail: dict[str, object] = {}
        with engaged(plan):
            if fault_point is not None and fault_point.startswith(
                "persist.publish."
            ):
                plan.arm(fault_point, at=0)
                expected_injected = 1
            try:
                SnapshotManager(
                    root, db, strategy=session.strategy, session=session,
                    keep_history=True,
                ).checkpoint(extra={"cursor": late, "digest": digest_late})
            except PersistError:
                # The pointer corruption breaks the manager's own
                # post-publish read-back -- the writer dies here, like
                # a crash after a partial publish.  The generation dir
                # itself landed intact.
                pass
            corrupt_generation = max(list_generations(root))
            if fault_point == "persist.restore":
                plan.arm(fault_point, at=0)
                expected_injected = 1
            if fault_point == "persist.publish.bitflip":
                # A flipped data bit passes the structural check; the
                # lazy verifier catches it off the critical path and
                # the re-restore excludes the rotted generation.
                restored = restore_snapshot(root, verify="lazy")
                detail["lazy_verify_passed"] = restored.verifier.wait(60.0)
                if not detail["lazy_verify_passed"]:
                    restored = restore_snapshot(
                        root,
                        verify="eager",
                        exclude=[restored.generation],
                    )
            else:
                restored = restore_snapshot(root)
        detail["corrupt_generation"] = corrupt_generation
        detail["restored_generation"] = restored.generation
        detail["fallback_generations"] = restored.fallback_generations
        detail["verification"] = restored.verification
        cursor = int(restored.extra["cursor"])
        detail["resumed_from_cursor"] = cursor
        final = replay_digest(
            restored.db,
            restored.session,
            trace,
            start=cursor,
            digest=str(restored.extra["digest"]),
        )
    queries = sum(1 for op in trace if op.is_query)
    run_fp = {
        "queries": queries,
        "updates": len(trace) - queries,
        "result_sha256": final,
    }
    return oracle_scenario(
        name,
        len(trace),
        run_fp,
        final == baseline_digest,
        faults=_fault_summary(plan, expected_injected),
        detail=detail,
    )


# -- the sweep ---------------------------------------------------------------


def run_chaos(
    rows: int = DEFAULT_ROWS,
    ops: int = DEFAULT_OPS,
    seed: int = 42,
    mode: str = "full",
) -> dict[str, object]:
    """Run every chaos scenario once; return the JSON-ready document."""
    case = _trace(rows, ops, seed)
    trace = case[0]

    quarantine_policy = SupervisorPolicy(
        max_restarts_per_worker=16, quarantine_threshold=2
    )
    serving_plans = [
        ("serving/faultfree", dict()),
        (
            "serving/worker_crash",
            dict(
                arm=lambda p: p.arm("workers.perform", at=[1, 4]),
                expected_injected=2,
                workers=2,
            ),
        ),
        (
            "serving/worker_quarantine",
            # Five consecutive planned batches crash over the three
            # columns of a round-robin plan, each crashed batch
            # retried: 2/2/1 at this seed, so two columns hit the
            # quarantine threshold and are dead-lettered; five crashes
            # cannot take all three there, so the pool stays alive (the
            # ranked policy would re-offer a dead-lettered best column
            # forever, which is by design fatal).  Indices start late
            # enough that every column has been queried.
            dict(
                arm=lambda p: p.arm(
                    "workers.perform", at=[10, 11, 12, 13, 14]
                ),
                expected_injected=5,
                workers=2,
                supervisor=quarantine_policy,
                policy="round_robin",
            ),
        ),
        (
            "serving/poison_retry",
            dict(
                arm=lambda p: p.arm("serving.replay", at=5),
                expected_injected=1,
            ),
        ),
        (
            "serving/poison_fallback",
            dict(
                arm=lambda p: p.arm("serving.replay", at=[11, 12]),
                expected_injected=2,
            ),
        ),
        (
            "serving/malformed_query",
            dict(malform_every=_MALFORM_EVERY),
        ),
    ]
    results = [
        _serving_scenario(name, rows, ops, seed, case, **kwargs)
        for name, kwargs in serving_plans
    ]

    baseline_db = fresh_db(rows, seed, _COLUMNS)
    baseline_session = baseline_db.session("holistic", seed=seed)
    baseline_digest = replay_digest(baseline_db, baseline_session, trace)
    persist_plans = [
        ("persist/faultfree", None),
        ("persist/torn_snapshot", "persist.publish.torn"),
        ("persist/bitflip_snapshot", "persist.publish.bitflip"),
        ("persist/torn_pointer", "persist.publish.pointer"),
        ("persist/restore_fault", "persist.restore"),
    ]
    results += [
        _persist_scenario(name, rows, ops, seed, trace, baseline_digest, point)
        for name, point in persist_plans
    ]
    scenarios = {result.name: result for result in results}

    matches = {
        name: result.extra["matches_reference"]
        for name, result in sorted(scenarios.items())
    }
    injected_points: set[str] = set()
    recovery = {}
    for name, result in sorted(scenarios.items()):
        faults = result.extra["faults"]
        injected_points.update(faults.get("per_point", {}))
        recovery[name] = {
            "expected": faults.get("expected", 0),
            "injected": faults.get("injected", 0),
            "unrecovered": faults.get("unrecovered", 0),
            "restarts": result.extra["detail"]
            .get("supervisor", {})
            .get("restarts", 0),
        }
    return {
        "schema": "chaos-v2",
        "config": {
            "rows": rows,
            "ops": ops,
            "columns": list(_COLUMNS),
            "seed": seed,
            "mode": mode,
            "window": _WINDOW,
            "clients": _CLIENTS,
            "write_ratio": WRITE_RATIO,
        },
        "scenarios": {
            name: result.as_dict()
            for name, result in sorted(scenarios.items())
        },
        "oracle_matches_reference": matches,
        "fault_recovery": recovery,
        "fault_coverage": {
            "registered": sorted(FAULT_POINTS),
            "injected": sorted(injected_points),
            "missing": sorted(set(FAULT_POINTS) - injected_points),
        },
    }


def _gate(result: dict[str, object]) -> list[str]:
    """The in-run correctness gates -- applied even without --check."""
    failures: list[str] = []
    for name, ok in result.get("oracle_matches_reference", {}).items():
        if not ok:
            failures.append(
                f"{name}: results diverged from the fault-free reference"
            )
    for name, counts in result.get("fault_recovery", {}).items():
        if counts["injected"] != counts["expected"]:
            failures.append(
                f"{name}: injected {counts['injected']} faults, "
                f"armed {counts['expected']}"
            )
        if counts["unrecovered"]:
            failures.append(
                f"{name}: {counts['unrecovered']} injected fault(s) "
                "were never claimed by a recovery path"
            )
        if counts["restarts"] > counts["injected"]:
            failures.append(
                f"{name}: {counts['restarts']} supervised restarts for "
                f"{counts['injected']} injected fault(s)"
            )
    missing = result.get("fault_coverage", {}).get("missing", [])
    if missing:
        failures.append(
            "registered fault points never exercised: " + ", ".join(missing)
        )
    return failures


def chaos_text(result: dict[str, object]) -> str:
    """Human-readable rendering of a chaos run."""
    config = result["config"]
    lines = [
        "Chaos gate "
        f"({config['rows']:,} rows x {len(config['columns'])} columns, "
        f"{config['ops']:,} trace ops, mode={config['mode']})",
        f"{'scenario':<28} {'inj':>4} {'rec':>4} {'restarts':>9} "
        f"{'oracle':>9}",
    ]
    recovery = result.get("fault_recovery", {})
    for name, data in result["scenarios"].items():
        faults = data.get("faults", {})
        ok = "ok" if data["matches_reference"] else "DIVERGED"
        lines.append(
            f"{name:<28} {faults.get('injected', 0):>4} "
            f"{faults.get('recovered', 0):>4} "
            f"{recovery.get(name, {}).get('restarts', 0):>9} {ok:>9}"
        )
    coverage = result.get("fault_coverage", {})
    lines.append(
        f"fault points exercised: {len(coverage.get('injected', []))}"
        f"/{len(coverage.get('registered', []))}"
        + (
            f" (MISSING: {', '.join(coverage['missing'])})"
            if coverage.get("missing")
            else ""
        )
    )
    return "\n".join(lines)


SUITE = Suite(
    name="chaos",
    run=run_chaos,
    text=chaos_text,
    gate=_gate,
    full_sizes=(DEFAULT_ROWS, DEFAULT_OPS),
    quick_sizes=(QUICK_ROWS, QUICK_OPS),
)
