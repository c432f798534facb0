"""One workload, one process: set up, warm up, time passes, report.

The process measures one workload either untraced (end-to-end
metrics) or traced (per-layer metrics) -- never both, so an end-to-end
number is never taken with wrappers installed.

Timeline of a run::

    [install wrappers]
    3 x (setup(), warm-up pass)                              <- setup_s
    gc.freeze(), calibration, timed pass, calibration, ...   <- --seconds
    [uninstall wrappers, 3 untraced reference passes]        <- traced only

Passes run until adding another would overshoot ``--seconds`` by more
than stopping now undershoots it.

**What is reported.**  Every time is divided by the time scale of the
pass (or set-up) it was measured in -- from the calibration unit of
:mod:`perfbench.calibration` timed right before and after it; spans
that wait on the disk (``PassStats.disk_s``) excepted -- and a
metric is then the median over the passes
(a latency percentile: over all timed samples of all passes).  The raw
wall-clock median stands beside every value in the report as ``raw``.
Set-up is repeated because the first set-up alone pays for faulting
the heap in (~5 ms per MB here): ``setup_s`` is the median of three.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from perfbench import registry
from perfbench.calibration import (
    REFERENCE_S,
    Calibration,
    slowdown,
    time_scale,
)
from perfbench.env import OUT_DIR
from perfbench.layers import Tracer
from perfbench.workloads import BENCHES, Bench, PassStats

clock = time.perf_counter

SETUPS = 3
REFERENCE_PASSES = 3


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def over_passes(
    unit: str, values: list[float], raw: list[float] | None = None
) -> dict[str, object]:
    """A metric with one value a pass (or a set-up): their median."""
    return {
        "value": statistics.median(values),
        "unit": unit,
        "raw": statistics.median(values if raw is None else raw),
        "quartiles": quartiles(values),
        "samples": len(values),
        "per_pass": values,
    }


def end_to_end(
    workload: str,
    passes: list[PassStats],
    setups: list[tuple[float, float]],
    failed: int,
    attempted: int,
) -> dict[str, dict[str, object]]:
    def latency(
        field: str, q: float, factor: float, unit: str, on_disk: bool = False
    ):
        """A percentile over every timed sample of every pass; disk
        spans are reported as measured (``PassStats.disk_s``)."""
        raw = [np.frombuffer(getattr(p, field)) for p in passes]
        scales = [1.0 if on_disk else p.scale for p in passes]
        scaled = np.concatenate(
            [samples / scale for samples, scale in zip(raw, scales)]
        )
        return {
            "value": float(np.percentile(scaled, q)) * factor,
            "unit": unit,
            "raw": float(np.percentile(np.concatenate(raw), q)) * factor,
            "samples": len(scaled),
            "per_pass": [
                float(np.percentile(samples, q)) * factor / scale
                for samples, scale in zip(raw, scales)
            ],
        }

    def rate(count, raw_s, reference_s) -> dict[str, object]:
        return over_passes(
            "1/s",
            [count(p) / reference_s(p) for p in passes],
            [count(p) / raw_s(p) for p in passes],
        )

    candidates = {
        "setup_s": lambda: over_passes(
            "s",
            [s / time_scale(slow) for s, slow in setups],
            [s for s, _ in setups],
        ),
        "ops_per_s": lambda: rate(
            lambda p: p.ops,
            lambda p: p.busy_s,
            lambda p: p.busy_at_reference_s,
        ),
        "query_p50_us": lambda: latency("query_s", 50, 1e6, "us"),
        "query_p99_us": lambda: latency("query_s", 99, 1e6, "us"),
        "cum_response_s": lambda: over_passes(
            "s",
            [sum(p.query_s) / p.scale for p in passes],
            [sum(p.query_s) for p in passes],
        ),
        # After the first timed pass: the kernel keeps a record of
        # every query it ever answered (~340 B each), so the high-water
        # mark of the whole run follows how many passes fit in
        # --seconds, i.e. the machine's speed; and the ReferenceEngine
        # cross-checks, which copy every column, start with the second.
        "peak_rss_mb": lambda: over_passes("MB", [passes[0].peak_rss_mb]),
        "failed_ops_ratio": lambda: over_passes(
            "ratio", [failed / attempted]
        ),
        "first_touch_ms": lambda: latency("first_touch_s", 50, 1e3, "ms"),
        "write_p50_us": lambda: latency("write_s", 50, 1e6, "us"),
        "write_p99_us": lambda: latency("write_s", 99, 1e6, "us"),
        "idle_actions_per_s": lambda: rate(
            lambda p: p.idle_actions,
            lambda p: p.idle_s,
            lambda p: p.idle_s / (1.0 if p.idle_on_disk else p.scale),
        ),
        "checkpoint_p50_ms": lambda: latency(
            "checkpoint_s", 50, 1e3, "ms", on_disk=True
        ),
        "restore_ms": lambda: latency(
            "restore_s", 50, 1e3, "ms", on_disk=True
        ),
        "disk_bytes_per_user_byte": lambda: over_passes(
            "ratio", [p.disk_ratio for p in passes]
        ),
    }
    return {
        metric.name: candidates[metric.name]()
        for metric in registry.END_TO_END
        if metric.applies_to(workload)
    }


def us_per_op(passes: list[PassStats]) -> float:
    """Median busy time an op, at the reference speed."""
    return statistics.median(
        p.busy_at_reference_s / p.ops for p in passes
    ) * 1e6


def per_layer(
    tracer: Tracer,
    spans: dict[str, np.ndarray],
    traced: list[PassStats],
    reference: list[PassStats],
) -> dict[str, dict[str, object]]:
    summary = tracer.summarize(spans)
    ops = sum(p.ops for p in traced)
    busy = sum(p.busy_s for p in traced)
    # The scale of the traced passes together, weighted by busy time.
    scale = busy / sum(p.busy_at_reference_s for p in traced)
    values: dict[str, float] = {}
    for layer in registry.LAYERS:
        values[f"{layer}.self_us_per_op"] = (
            summary["self_s"][layer] * 1e6 / ops / scale
        )
        values[f"{layer}.calls_per_op"] = summary["calls"][layer] / ops
    # Exact counts come from the first timed pass, whose inputs and
    # starting state do not depend on how many passes fit.
    values.update(traced[0].counts)
    values["trace.coverage"] = summary["driver_root_s"] / busy
    values["trace.overhead_ratio"] = (
        us_per_op(traced) / us_per_op(reference) - 1.0
    )
    values["trace.spans"] = summary["spans"]
    return {
        metric.name: {
            "value": float(values.get(metric.name, 0.0)),
            "unit": metric.unit,
        }
        for metric in registry.PER_LAYER
    }


def timed_pass(
    bench: Bench, index: int, calibration: Calibration,
    tracer: Tracer | None = None,
) -> PassStats:
    bench.prepare_pass(index)
    # Whatever is alive between passes is state, not garbage: move it
    # out of the collector's sight (it stays enabled, but full
    # collections then have little to rescan).
    gc.collect()
    gc.freeze()
    before = calibration.sample()
    if tracer:
        tracer.on = True
    stats = bench.run_pass(index)
    if tracer:
        tracer.on = False
    stats.slowdown = slowdown(before, calibration.sample())
    stats.peak_rss_mb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    return stats


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    record: Path | None,
) -> int:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer = Tracer().install() if trace else None
    calibration = Calibration()
    bench = None
    warm_ups: list[PassStats] = []
    setups: list[tuple[float, float]] = []  # (seconds, slowdown)
    try:
        for _ in range(SETUPS):
            # The previous set-up is garbage now; the pinned allocator
            # hands its pages, already faulted in, to this one.
            if bench is not None:
                bench.close()
            bench = None
            gc.collect()
            before = calibration.sample()
            started = clock()
            bench = BENCHES[workload](seed, smoke, OUT_DIR)
            bench.setup()
            bench.prepare_pass(-1)
            warm_ups.append(bench.run_pass(-1))
            took = clock() - started
            setups.append((took, slowdown(before, calibration.sample())))

        passes: list[PassStats] = []
        # A traced run keeps room for its untraced reference passes.
        reserve = 0.5 + (REFERENCE_PASSES if tracer else 0)
        timed_from = clock()
        while True:
            passes.append(
                timed_pass(bench, len(passes), calibration, tracer)
            )
            elapsed = clock() - timed_from
            if elapsed + reserve * elapsed / len(passes) >= seconds:
                break
        timed_s = clock() - timed_from
        reference: list[PassStats] = []
        if tracer:
            tracer.uninstall()
            for _ in range(REFERENCE_PASSES):
                reference.append(
                    timed_pass(
                        bench, len(passes) + len(reference), calibration
                    )
                )
    finally:
        if bench is not None:
            bench.close()

    checked = [*warm_ups, *passes, *reference]
    attempted = sum(p.ops for p in checked)
    failed = sum(p.failed for p in checked)
    if tracer:
        spans = tracer.collect()
        metrics = per_layer(tracer, spans, passes, reference)
        tracer.write(OUT_DIR / f"{workload}.trace.npz", spans)
    else:
        metrics = end_to_end(workload, passes, setups, failed, attempted)

    for name, value in metrics.items():
        print(f"{name} {value['value']:.6g} {value['unit']}")
    if record is not None:
        record.write_text(json.dumps({
            "workload": workload,
            "seed": seed,
            "trace": trace,
            "smoke": smoke,
            "passes": len(passes),
            "timed_s": timed_s,
            "attempted": attempted,
            "failed": failed,
            "noise.calib_ms": [
                p.slowdown * REFERENCE_S * 1e3 for p in passes
            ],
            "noise.slowdown": [p.slowdown for p in passes],
            "metrics": metrics,
        }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric.name: {
                "value": metrics[metric.name]["value"],
                "unit": metrics[metric.name]["unit"],
            }
            for metric in (registry.PER_LAYER if trace else registry.gated())
        },
    }))
    sys.stdout.flush()
    return 0 if failed == 0 else 1
