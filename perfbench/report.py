"""The full run: every workload, untraced then traced, one report.

Each measurement is its own ``python -m perfbench --workload ...``
subprocess (so ``peak_rss_mb`` is that workload's own); this module
only orchestrates, prints every metric by name with its unit, and
writes the report that ``python -m perfbench compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from perfbench import registry
from perfbench.env import OUT_DIR, ROOT, describe, workload_environment


def measure(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> dict[str, object]:
    """One workload process; returns the record it wrote."""
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        record = Path(scratch) / "record.json"
        command = [
            sys.executable, "-m", "perfbench",
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace)),
            "--record", str(record),
        ]
        if smoke:
            command.append("--smoke")
        started = time.perf_counter()
        done = subprocess.run(
            command, cwd=ROOT, env=workload_environment(),
            stdout=subprocess.DEVNULL,
        )
        wall_s = time.perf_counter() - started
        if not record.exists():
            raise RuntimeError(
                f"{workload} (trace={int(trace)}) exited "
                f"{done.returncode} without a record"
            )
        # The whole process, interpreter start to exit: what one run
        # costs of the driver's time budget.
        return {**json.loads(record.read_text()), "wall_s": wall_s}


def print_record(record: dict[str, object]) -> None:
    mode = "traced" if record["trace"] else "untraced"
    print(
        f"== {record['workload']} ({mode}, seed {record['seed']}, "
        f"{record['passes']} passes in {record['timed_s']:.1f} s of "
        f"{record['wall_s']:.1f} s, "
        f"{record['failed']} of {record['attempted']} ops failed, "
        f"noise.calib_ms "
        f"{statistics.median(record['noise.calib_ms']):.3f}, slowdown "
        f"{statistics.median(record['noise.slowdown']):.2f})"
    )
    for name, entry in record["metrics"].items():
        if record["trace"] and not entry["value"]:
            continue  # a layer this workload never enters
        line = f"  {name:<44} {entry['value']:>14.6g} {entry['unit']}"
        if "raw" in entry and entry["samples"] > 1:
            line += f"   [raw {entry['raw']:.6g}, n {entry['samples']}"
            if "quartiles" in entry:
                q1, _, q3 = entry["quartiles"]
                line += f", q1 {q1:.6g}, q3 {q3:.6g}"
            line += "]"
        print(line)
    if record["trace"]:
        print_shares(record)


def print_shares(record: dict[str, object]) -> None:
    """Each layer's share of the traced self time."""
    self_us = {
        layer: record["metrics"][f"{layer}.self_us_per_op"]["value"]
        for layer in registry.LAYERS
    }
    total = sum(self_us.values())
    shares = sorted(self_us.items(), key=lambda item: -item[1])
    print("  shares: " + ", ".join(
        f"{layer} {value / total:.1%}" for layer, value in shares if value
    ))


def main(args: argparse.Namespace) -> int:
    workloads = args.workload or list(registry.workload_names())
    unknown = set(workloads) - set(registry.workload_names())
    if unknown:
        print(f"perfbench: unknown workloads {sorted(unknown)}",
              file=sys.stderr)
        return 2
    modes = (False, True) if args.trace is None else (bool(args.trace),)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    runs: list[dict[str, object]] = []
    failed = 0
    for repeat in range(args.repeat or 1):
        for workload in workloads:
            for trace in modes:
                record = measure(
                    workload, args.seed + repeat, args.seconds, trace,
                    args.smoke,
                )
                print_record(record)
                sys.stdout.flush()
                failed += record["failed"]
                runs.append(record)
    out = args.out or OUT_DIR / "report.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "schema": "perfbench-report-v1",
        "env": describe(args.seed),
        "seconds": args.seconds,
        "smoke": args.smoke,
        "runs": runs,
    }, indent=1))
    print(f"wrote {out}")
    return 0 if failed == 0 else 1
