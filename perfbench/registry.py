"""Names, units, directions and bounds: the benchmark's fixed vocabulary.

Every later performance or simplicity claim on this repository is made
in these names, so they are declared once, here, and
``BENCHMARK.json`` must agree with them (``tests/test_smoke.py``
checks both directions).

Six of the seven workloads are in ``BENCHMARK.json``;
``durable_cycle`` is run, checked, reported and compared like the
others but not listed there (see its entry below).

Two kinds of end-to-end metric exist.  The driver's contract wants
every metric of ``BENCHMARK.json``'s ``end_to_end`` list from every
workload, never zero, with a run-to-run spread inside a bound of at
most 25 %: :data:`GATED` names the ones that can promise that.  The
rest are measured, printed and compared by ``python -m perfbench`` /
``compare`` with their own bounds, but stay out of the result line: a
metric with a workload tuple exists only where its operation does
(there is no write latency on a read-only workload);
``failed_ops_ratio`` is zero on every correct run and rides in the
result line as its ``failed``/``attempted`` keys; ``query_p99_us``
spread 17-34 % between runs on this host (README, *Bounds*), more than
the largest bound the contract allows.

Times are wall-clock, scaled to the reference machine speed
(:mod:`perfbench.calibration`); the report carries the raw value too.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Layers of the traced run, named after the modules under ``src/repro``.
LAYERS = (
    "engine",
    "holistic.kernel",
    "holistic.scheduler",
    "holistic.tuner",
    "holistic.ranking",
    "holistic.workers",
    "online.monitor",
    "cracking.index",
    "cracking.piecemap",
    "cracking.engine",
    "cracking.batch",
    "cracking.tape",
    "cracking.concurrency",
    "simtime",
    "storage.updates",
    "serving.window",
    "serving.frontend",
    "persist",
)


@dataclass(frozen=True, slots=True)
class Workload:
    name: str
    why: str
    #: Listed in ``BENCHMARK.json``: the driver runs it and holds its
    #: spreads against the bounds.
    gated: bool = True


@dataclass(frozen=True, slots=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the baseline median the metric may worsen by; ``None``
    #: for per-layer metrics, which explain and are never gated.
    bound: float | None = None
    #: Workloads the metric exists on; ``None`` means all of them.
    workloads: tuple[str, ...] | None = None
    definition: str = ""

    def applies_to(self, workload: str) -> bool:
        return self.workloads is None or workload in self.workloads


WORKLOADS = (
    Workload(
        "cold_explore",
        "first touches and early cracks over 2 x 10^7-row columns: the "
        "crack kernels and index creation do the work, bookkeeping is "
        "noise (bypass: warm_steady)",
    ),
    Workload(
        "warm_steady",
        "converged selects on a 320-point grid hit existing pivots, so "
        "time is the per-query Python path, not the kernels (bypass: "
        "cold_explore)",
    ),
    Workload(
        "burst_idle",
        "the paper's Exp2 shape: serial idle windows between query "
        "bursts turn idle time into lower query cost (bypass: "
        "warm_steady, which has no idle windows)",
    ),
    Workload(
        "burst_idle_workers",
        "the burst_idle trace with the idle windows drained by the "
        "tuning worker pool through piece latches (bypass: burst_idle)",
    ),
    Workload(
        "durable_cycle",
        "reads, writes and idle windows with the incremental "
        "checkpointer attached, explicit checkpoints and restores: "
        "persist dominates (bypass: every other workload)",
        # Four fifths of its time is the disk's (fsync, page-cache
        # writes, unlink), and this VM's disk moves by 25-50 % within
        # half an hour, bursts and floor both: five sets of ten runs
        # spread 8 %, 15 %, 27 %, 65 % and 15 % on ops_per_s.  No
        # bound the contract allows holds that (README, *Bounds*).
        gated=False,
    ),
    Workload(
        "serve_clients",
        "the warm_steady grid queries through the serving front-end "
        "for 4 closed-loop clients; the difference to warm_steady is "
        "the serving path alone",
    ),
    Workload(
        "mixed_rw",
        "80/20 reads and 16-row write batches over a growing delta "
        "store, reads in run_batch windows (bypass: warm_steady, whose "
        "delta is fixed and small)",
    ),
)

_IDLE = ("burst_idle", "burst_idle_workers", "durable_cycle")
_WRITES = ("mixed_rw", "durable_cycle")
_DURABLE = ("durable_cycle",)

END_TO_END = (
    Metric(
        "setup_s", "s", "lower", 0.25, None,
        "data generation, Database/strategy build, convergence and the "
        "warm-up pass; the median of three set-ups in a run",
    ),
    Metric(
        "ops_per_s", "1/s", "higher", 0.25, None,
        "ops / busy time of a pass (sum of the op spans, idle windows, "
        "checkpoints and restores included); median over passes",
    ),
    Metric(
        "query_p50_us", "us", "lower", 0.25, None,
        "per-query latency: wall time of the call that answered it; "
        "percentile over all timed samples",
    ),
    Metric("query_p99_us", "us", "lower", 0.25, None, "as query_p50_us"),
    Metric(
        "cum_response_s", "s", "lower", 0.25, None,
        "sum of query latencies over a pass (Fig. 3/4 end point; idle "
        "time excluded); median over passes",
    ),
    Metric(
        "peak_rss_mb", "MB", "lower", 0.05, None,
        "ru_maxrss of the workload process after set-up, warm-up and the "
        "first timed pass",
    ),
    Metric(
        "failed_ops_ratio", "ratio", "lower", 0.0, None,
        "ops that raised or answered wrongly / ops attempted",
    ),
    Metric(
        "first_touch_ms", "ms", "lower", 0.25, ("cold_explore",),
        "median latency of the first query on a never-queried column",
    ),
    Metric(
        "write_p50_us", "us", "lower", 0.25, _WRITES,
        "per write-batch latency (one stage_inserts/stage_deletes call)",
    ),
    Metric("write_p99_us", "us", "lower", 0.25, _WRITES, "as write_p50_us"),
    Metric(
        "idle_actions_per_s", "1/s", "higher", 0.25, _IDLE,
        "effective refinement actions / wall time inside Session.idle; "
        "median over passes",
    ),
    Metric(
        "checkpoint_p50_ms", "ms", "lower", 0.25, _DURABLE,
        "explicit SnapshotManager.checkpoint() calls",
    ),
    Metric("restore_ms", "ms", "lower", 0.25, _DURABLE,
           "median restore_snapshot"),
    Metric(
        "disk_bytes_per_user_byte", "ratio", "lower", 0.01, _DURABLE,
        "snapshot directory bytes at the end of a pass / base-column "
        "bytes (exact count for a seed)",
    ),
)

#: Counts read from public state at the pass boundaries of the traced
#: run's first timed pass (name, unit, better).
_LAYER_COUNTS = (
    ("cracking.engine.rows_partitioned_per_op", "rows", "lower"),
    ("cracking.index.cracks_per_op", "count", "lower"),
    ("cracking.index.pivot_hit_ratio", "ratio", "higher"),
    ("cracking.piecemap.pieces", "count", "higher"),
    ("cracking.piecemap.avg_piece_rows", "rows", "lower"),
    ("cracking.tape.records", "count", "lower"),
    ("cracking.concurrency.stalls", "count", "lower"),
    ("holistic.scheduler.actions", "count", "higher"),
    ("holistic.tuner.effective_ratio", "ratio", "higher"),
    ("holistic.ranking.refined_columns", "count", "higher"),
    ("online.monitor.records", "count", "lower"),
    ("storage.updates.rows_staged", "rows", "higher"),
    ("storage.updates.pending_rows", "rows", "lower"),
    ("serving.window.windows", "count", "lower"),
    ("serving.window.avg_window_size", "count", "higher"),
    ("persist.generations", "count", "lower"),
    ("persist.bytes_written_per_checkpoint", "B", "lower"),
    ("persist.carried_array_ratio", "ratio", "higher"),
    ("simtime.virtual_response_s", "s", "lower"),
    ("engine.result_rows", "rows", "higher"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
)

PER_LAYER = tuple(
    metric
    for layer in LAYERS
    for metric in (
        Metric(f"{layer}.self_us_per_op", "us", "lower"),
        Metric(f"{layer}.calls_per_op", "count", "lower"),
    )
) + tuple(Metric(*row) for row in _LAYER_COUNTS)


#: The ``end_to_end`` list of ``BENCHMARK.json``.
GATED = (
    "setup_s", "ops_per_s", "query_p50_us", "cum_response_s", "peak_rss_mb",
)


def gated() -> tuple[Metric, ...]:
    """The end-to-end metrics of ``BENCHMARK.json``'s result line."""
    return tuple(metric for metric in END_TO_END if metric.name in GATED)


def workload_names() -> tuple[str, ...]:
    return tuple(workload.name for workload in WORKLOADS)


def gated_workloads() -> tuple[Workload, ...]:
    """The ``workloads`` list of ``BENCHMARK.json``."""
    return tuple(workload for workload in WORKLOADS if workload.gated)
