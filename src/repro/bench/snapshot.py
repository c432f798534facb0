"""Durability correctness gate: checkpointing, memmap restore, kill -9.

Four claims of the persist layer (:mod:`repro.persist`), checked:

* **Checkpointing is non-perturbing** -- a mixed read/write trace
  replayed with an :class:`IncrementalCheckpointer` attached produces
  bit-identical query results to an uncheckpointed run.
* **Steady-state checkpoints are incremental** -- generations carry
  unchanged arrays forward instead of rewriting them (``incremental``
  section: full vs delta bytes and array counts).
* **Restart re-cracks nothing** -- after a memmap restore of the final
  generation, the piece maps are exactly as refined as at checkpoint
  and the crack tape has not moved (``restart.zero_recrack``).
* **kill -9 loses nothing committed** -- a child process replays the
  trace with periodic checkpoints carrying a *chained* result digest
  (``fp_i = sha256(fp_{i-1} || slot || sorted result bytes)``) plus
  its trace cursor; the parent SIGKILLs it mid-run, restarts it, and
  the resumed run's final digest must equal an uninterrupted run's.

What checkpointing and restore cost in wall-clock time is
``perfbench``'s question (``durable_cycle``).

Usage::

    python -m repro.bench snapshot            # full sizes
    python -m repro.bench snapshot --quick    # CI-sized run
    python -m repro.bench snapshot --quick --check BENCH_snapshot_quick.json

``--out`` writes the JSON document; ``--check`` compares its digests
and generation counts with a committed one.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.bench.harness import Suite, oracle_scenario
from repro.bench.oracle import drive_trace, sequential_executor
from repro.persist import (
    IncrementalCheckpointer,
    SnapshotManager,
    current_generation,
    restore_snapshot,
)
from repro.simtime.clock import SimClock
from repro.storage.database import Database
from repro.storage.loader import build_paper_table
from repro.workload.generators import TraceOp
from repro.workload.patterns import MixedPattern

DEFAULT_ROWS = 120_000
DEFAULT_OPS = 600
QUICK_ROWS = 40_000
QUICK_OPS = 240

_COLUMNS = ("A1", "A2")
_VALUE_LOW = 1.0
_VALUE_HIGH = 100_000_000.0
#: ``bench chaos`` replays the same trace shape over three columns.
WRITE_RATIO = 0.2
_IDLE_EVERY = 25
_IDLE_ACTIONS = 8
_CHECKPOINT_INTERVAL = 64

#: Child pacing for the kill -9 demo: a small per-op sleep keeps the
#: child alive long enough for the parent to observe generations
#: landing and kill it mid-trace, independent of machine speed.
_CHILD_THROTTLE_MS = 4
_CHILD_CHECKPOINT_EVERY = 20
_KILL_AFTER_GENERATIONS = 3


def fresh_db(
    rows: int, seed: int, columns: tuple[str, ...] = _COLUMNS
) -> Database:
    db = Database(clock=SimClock())
    db.add_table(
        build_paper_table(rows=rows, columns=len(columns), seed=seed)
    )
    return db


def mixed_trace(
    rows: int, ops: int, seed: int, columns: tuple[str, ...] = _COLUMNS
) -> list[TraceOp]:
    """The 80/20 read/write trace the durability scenarios replay."""
    pattern = MixedPattern(
        columns=list(columns),
        domain_low=_VALUE_LOW,
        domain_high=_VALUE_HIGH,
        op_count=ops,
        write_ratio=WRITE_RATIO,
        batch_size=8,
        seed=seed,
    )
    return pattern.ops(fresh_db(rows, seed, columns).table("R"))


def chain_digest(digest_hex: str, slot: int, values: np.ndarray) -> str:
    """One link of the resumable result digest.

    Unlike a hashlib object, the chained form is a plain hex string, so
    it can ride along inside a checkpoint's ``extra`` payload and be
    picked up by a restarted process mid-trace.
    """
    state = hashlib.sha256()
    state.update(bytes.fromhex(digest_hex))
    state.update(np.int64(slot).tobytes())
    state.update(
        np.sort(np.asarray(values, dtype=np.float64)).tobytes()
    )
    return state.hexdigest()


def replay_digest(
    db: Database,
    session,
    trace,
    start: int = 0,
    stop: int | None = None,
    digest: str = "",
    idle_every: int = 0,
    after_op=None,
) -> str:
    """Replay ``trace[start:stop]`` sequentially; returns the chained
    digest.  Every ``idle_every`` ops the session gets an idle window;
    ``after_op(slot, digest)`` runs after each op."""

    def observe(slot: int, op, values) -> None:
        nonlocal digest
        if values is not None:
            digest = chain_digest(digest, slot, values)
        if idle_every and (slot + 1) % idle_every == 0:
            session.idle(actions=_IDLE_ACTIONS)
        if after_op is not None:
            after_op(slot, digest)

    drive_trace(
        db, trace, sequential_executor(session), observe, start=start, stop=stop
    )
    return digest


# -- the kill -9 child --------------------------------------------------------


def run_child(
    root: str,
    rows: int,
    ops: int,
    seed: int,
    checkpoint_every: int,
    throttle_ms: float,
    out: str,
) -> int:
    """The crash-restart worker: resume from ``root`` if it has a
    snapshot, else start fresh; checkpoint every ``checkpoint_every``
    ops with the trace cursor + chained digest as ``extra``; write the
    final digest to ``out``.
    """
    trace = mixed_trace(rows, ops, seed)
    root_path = Path(root)
    resumed = current_generation(root_path) is not None
    if resumed:
        restored = restore_snapshot(root_path)
        db, session = restored.db, restored.session
        cursor = int(restored.extra["cursor"])
        digest = str(restored.extra["digest"])
    else:
        db = fresh_db(rows, seed)
        session = db.session("holistic", seed=seed)
        cursor, digest = 0, ""
    manager = SnapshotManager(
        root_path, db, strategy=session.strategy, session=session
    )

    def maybe_checkpoint(i: int, digest_now: str) -> None:
        if throttle_ms:
            time.sleep(throttle_ms / 1000.0)
        if (i + 1) % checkpoint_every == 0:
            manager.checkpoint(
                extra={"cursor": i + 1, "digest": digest_now}
            )

    digest = replay_digest(
        db,
        session,
        trace,
        start=cursor,
        digest=digest,
        idle_every=_IDLE_EVERY,
        after_op=maybe_checkpoint,
    )
    manager.checkpoint(extra={"cursor": len(trace), "digest": digest})
    Path(out).write_text(
        json.dumps(
            {
                "digest": digest,
                "resumed": resumed,
                "resumed_from_cursor": cursor,
                "generation": current_generation(root_path),
            }
        )
    )
    return 0


def _child_command(
    root: Path, rows: int, ops: int, seed: int, out: Path
) -> list[str]:
    return [
        sys.executable,
        "-m",
        "repro.bench.snapshot",
        "--child-root",
        str(root),
        "--rows",
        str(rows),
        "--ops",
        str(ops),
        "--seed",
        str(seed),
        "--checkpoint-every",
        str(_CHILD_CHECKPOINT_EVERY),
        "--throttle-ms",
        str(_CHILD_THROTTLE_MS),
        "--child-out",
        str(out),
    ]


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    package_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root
        if not existing
        else package_root + os.pathsep + existing
    )
    return env


def run_crash_demo(
    rows: int, ops: int, seed: int, expected_digest: str
) -> dict[str, object]:
    """SIGKILL a checkpointing child mid-trace, restart it, compare.

    Returns the JSON-ready ``crash`` section.
    """
    with tempfile.TemporaryDirectory(prefix="snap-crash-") as tmp:
        root = Path(tmp) / "snapshots"
        out = Path(tmp) / "child.json"
        env = _child_env()
        child = subprocess.Popen(
            _child_command(root, rows, ops, seed, out),
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        killed = False
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if child.poll() is not None:
                break  # finished before we got to kill it
            generation = None
            try:
                generation = current_generation(root)
            except Exception:
                pass  # mid-publish; try again
            if (
                generation is not None
                and generation >= _KILL_AFTER_GENERATIONS
            ):
                child.send_signal(signal.SIGKILL)
                killed = True
                break
            time.sleep(0.01)
        child.wait(timeout=120)
        generation_at_kill = current_generation(root)

        restart = subprocess.run(
            _child_command(root, rows, ops, seed, out),
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=600,
        )
        report = json.loads(out.read_text())
        return {
            "killed_mid_trace": killed,
            "generation_at_kill": generation_at_kill,
            "restart_exit_code": restart.returncode,
            "resumed": report["resumed"],
            "resumed_from_cursor": report["resumed_from_cursor"],
            "final_generation": report["generation"],
            "digest": report["digest"],
            "digest_matches_uninterrupted": (
                report["digest"] == expected_digest
            ),
        }


# -- the in-process scenarios -------------------------------------------------


def run_snapshot(
    rows: int = DEFAULT_ROWS,
    ops: int = DEFAULT_OPS,
    seed: int = 42,
    mode: str = "full",
    crash: bool = True,
) -> dict[str, object]:
    """Run the durability suite once; return the JSON-ready document."""
    trace = mixed_trace(rows, ops, seed)

    # Baseline: the trace with no durability work at all.
    db = fresh_db(rows, seed)
    session = db.session("holistic", seed=seed)
    reference_digest = replay_digest(
        db, session, trace, idle_every=_IDLE_EVERY
    )
    scenarios = [
        oracle_scenario(
            "lifecycle/no_checkpoint",
            len(trace),
            {"digest": reference_digest},
            True,
        )
    ]

    # The same trace with checkpointing competing for idle cycles.
    with tempfile.TemporaryDirectory(prefix="snap-bench-") as tmp:
        root = Path(tmp)
        db = fresh_db(rows, seed)
        session = db.session("holistic", seed=seed)
        kernel = session.strategy
        manager = SnapshotManager(root, db, strategy=kernel, session=session)
        cursor_digest: dict[str, object] = {"cursor": 0, "digest": ""}
        checkpointer = IncrementalCheckpointer(
            manager,
            interval_actions=_CHECKPOINT_INTERVAL,
            extra_provider=lambda: dict(cursor_digest),
        )
        kernel.attach_checkpointer(checkpointer)

        def track(i: int, digest_now: str) -> None:
            cursor_digest["cursor"] = i + 1
            cursor_digest["digest"] = digest_now

        digest = replay_digest(
            db, session, trace, idle_every=_IDLE_EVERY, after_op=track
        )
        scenarios.append(
            oracle_scenario(
                "lifecycle/with_checkpointer",
                len(trace),
                {
                    "digest": digest,
                    "generations": checkpointer.generations_written,
                },
                digest == reference_digest,
            )
        )

        # Full-vs-delta checkpoint cost.  A fresh manager has no
        # carry-forward history, so its first checkpoint writes the
        # whole state; the live manager's next checkpoint rewrites
        # only what moved since the checkpointer's last generation.
        full = SnapshotManager(
            root / "full-cost", db, strategy=kernel, session=session
        ).checkpoint(extra={"cursor": len(trace)})
        delta = manager.checkpoint(extra={"cursor": len(trace)})
        incremental = {
            "full_arrays": full.arrays_written + full.arrays_carried,
            "full_bytes": full.bytes_written,
            "delta_arrays_written": delta.arrays_written,
            "delta_arrays_carried": delta.arrays_carried,
            "delta_bytes": delta.bytes_written,
        }

        # Warm restart: memmap restore of the final generation must
        # bring back every piece and leave the tape where it was.
        restored_kernel = restore_snapshot(root).strategy
        zero_recrack = (
            restored_kernel.tape.count() == kernel.tape.count()
            and all(
                restored_kernel.indexes[ref].piece_count == index.piece_count
                for ref, index in kernel.indexes.items()
            )
        )
        for index in restored_kernel.indexes.values():
            index.check_invariants()

    crash_section: dict[str, object] | None = None
    if crash:
        crash_section = run_crash_demo(rows, ops, seed, reference_digest)

    return {
        "schema": "snapshot-v2",
        "config": {
            "rows": rows,
            "ops": ops,
            "columns": list(_COLUMNS),
            "seed": seed,
            "mode": mode,
            "write_ratio": WRITE_RATIO,
            "idle_every": _IDLE_EVERY,
            "checkpoint_interval": _CHECKPOINT_INTERVAL,
            "child_checkpoint_every": _CHILD_CHECKPOINT_EVERY,
        },
        "scenarios": {result.name: result.as_dict() for result in scenarios},
        "incremental": incremental,
        "restart": {"zero_recrack": zero_recrack},
        "crash": crash_section,
        "oracle_matches_reference": {
            result.name: result.extra["matches_reference"]
            for result in scenarios
        },
    }


def snapshot_text(result: dict[str, object]) -> str:
    """Human-readable rendering of a snapshot run."""
    config = result["config"]
    lines = [
        "Durability gate "
        f"({config['rows']:,} rows x {len(config['columns'])} columns, "
        f"{config['ops']:,} trace ops, mode={config['mode']})",
        f"{'scenario':<34} {'result digest':>14} {'oracle':>9}",
    ]
    for name, data in result["scenarios"].items():
        ok = "ok" if data["matches_reference"] else "DIVERGED"
        lines.append(
            f"{name:<34} {data['fingerprint']['digest'][:12]:>14} {ok:>9}"
        )
    inc = result["incremental"]
    lines.append("")
    lines.append(
        f"incremental checkpoint: {inc['delta_bytes']:,} B delta vs "
        f"{inc['full_bytes']:,} B full "
        f"({inc['delta_arrays_carried']} arrays carried forward)"
    )
    lines.append(
        "re-cracks on memmap restore: "
        + ("0" if result["restart"]["zero_recrack"] else "NONZERO")
    )
    crash = result.get("crash")
    if crash:
        verdict = (
            "identical"
            if crash["digest_matches_uninterrupted"]
            else "DIVERGED"
        )
        lines.append(
            f"kill -9 at generation {crash['generation_at_kill']}, "
            f"resumed from op {crash['resumed_from_cursor']}: "
            f"final digest {verdict}"
        )
    return "\n".join(lines)


def _gate(document: dict[str, object]) -> list[str]:
    """In-run correctness: digest equality, zero re-crack, kill -9."""
    failures = [
        f"{name}: digest diverged from the uncheckpointed run"
        for name, ok in document.get("oracle_matches_reference", {}).items()
        if not ok
    ]
    if not document.get("restart", {}).get("zero_recrack", False):
        failures.append(
            "restart: memmap restore re-cracked pieces "
            "(piece maps or tape moved)"
        )
    crash = document.get("crash")
    if crash is not None:
        if not crash.get("digest_matches_uninterrupted", False):
            failures.append(
                "crash/kill9: resumed digest diverged from the "
                "uninterrupted run"
            )
        if crash.get("restart_exit_code") != 0:
            failures.append(
                "crash/kill9: restarted child exited "
                f"{crash.get('restart_exit_code')}"
            )
    return failures


SUITE = Suite(
    name="snapshot",
    run=run_snapshot,
    text=snapshot_text,
    gate=_gate,
    full_sizes=(DEFAULT_ROWS, DEFAULT_OPS),
    quick_sizes=(QUICK_ROWS, QUICK_OPS),
)


def _child_main(argv: list[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="repro-bench-snapshot-child")
    parser.add_argument("--child-root", required=True)
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--checkpoint-every", type=int, required=True)
    parser.add_argument("--throttle-ms", type=float, default=0.0)
    parser.add_argument("--child-out", required=True)
    args = parser.parse_args(argv)
    return run_child(
        args.child_root,
        args.rows,
        args.ops,
        args.seed,
        args.checkpoint_every,
        args.throttle_ms,
        args.child_out,
    )


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(_child_main(sys.argv[1:]))
