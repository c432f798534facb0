"""ExpP: refinement convergence vs idle-core count.

The paper's multi-core argument -- and the explicit subject of "Main
Memory Adaptive Indexing for Multi-core Systems" (Alvarez et al.) --
is that idle cores refine partial indexes concurrently, so convergence
to cache-resident pieces should scale with the number of tuning
workers.  This experiment sweeps the holistic kernel's ``num_workers``
knob over the same workload and measures the virtual idle time needed
to refine every candidate column to the cache target:

* ``workers = 0`` is the serial scheduler with ``batch_tuning=True``:
  one multi-pivot pass per column and window, which is what a worker
  lane is charged for too (k pivots in a piece cost one pass, not k),
  so "one worker ~ serial" compares like with like;
* ``workers >= 1`` drain each idle window through the
  :class:`~repro.holistic.workers.TuningWorkerPool` as planned
  per-column batches under piece-level latches; the virtual clock
  charges each worker on its own lane and advances wall-clock by the
  slowest lane, so elapsed idle time drops toward ``busy / workers``.
  Plans are static and pivots are drawn per column at plan time, so
  every row of the sweep is a deterministic function of the seed.

Reported per worker count: idle windows and virtual seconds until
convergence, aggregate busy seconds, achieved speedup over one worker,
effective refinement actions and latch contention stalls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import ScaleSpec, scale_by_name
from repro.errors import BenchmarkError
from repro.simtime.clock import SimClock
from repro.storage.database import Database
from repro.storage.loader import build_paper_table
from repro.bench.report import format_seconds, format_table

#: Worker counts swept by default (0 = serial scheduler baseline).
DEFAULT_WORKER_COUNTS = (0, 1, 2, 4)


@dataclass(slots=True)
class ParallelRun:
    """Convergence measurements for one worker count."""

    workers: int
    windows: int = 0
    idle_consumed_s: float = 0.0
    busy_s: float = 0.0
    actions_attempted: int = 0
    actions_effective: int = 0
    stalls: int = 0
    converged: bool = False

    @property
    def speedup_vs_serial_work(self) -> float:
        """Elapsed-vs-busy ratio: how much the lanes overlapped."""
        if self.idle_consumed_s <= 0:
            return 1.0
        busy = self.busy_s if self.busy_s > 0 else self.idle_consumed_s
        return busy / self.idle_consumed_s


@dataclass(slots=True)
class ParallelSweepResult:
    """All runs of one convergence-vs-cores sweep."""

    scale: ScaleSpec
    worker_counts: list[int]
    columns: int
    actions_per_window: int
    cache_target_elements: int
    runs: dict[int, ParallelRun] = field(default_factory=dict)

    def run_for(self, workers: int) -> ParallelRun:
        try:
            return self.runs[workers]
        except KeyError:
            raise BenchmarkError(
                f"no run for {workers} workers"
            ) from None


def run_parallel_sweep(
    scale: ScaleSpec | str = "tiny",
    worker_counts: tuple[int, ...] = DEFAULT_WORKER_COUNTS,
    columns: int = 2,
    actions_per_window: int = 64,
    max_windows: int = 128,
    cache_target_elements: int | None = None,
    seed: int = 42,
) -> ParallelSweepResult:
    """Measure convergence time for each worker count.

    Every run builds the same multi-column table, then issues idle
    windows of ``actions_per_window`` refinements until every candidate
    column is refined to the cache target (or ``max_windows`` pass).
    The virtual seconds consumed by those windows are the figure of
    merit: with parallel lanes they shrink toward ``busy / workers``.

    Raises:
        BenchmarkError: if any run fails to converge -- the sweep's
            comparisons would be meaningless.
    """
    if isinstance(scale, str):
        scale = scale_by_name(scale)
    if cache_target_elements is None:
        # A target that takes a few windows to reach at this scale;
        # the derived paper-scale target collapses to 1 row at reduced
        # scales, which would never converge.
        cache_target_elements = max(2, scale.rows // 64)
    result = ParallelSweepResult(
        scale=scale,
        worker_counts=list(worker_counts),
        columns=columns,
        actions_per_window=actions_per_window,
        cache_target_elements=cache_target_elements,
    )
    for workers in worker_counts:
        db = Database(clock=SimClock(scale.cost_model()))
        db.add_table(
            build_paper_table(rows=scale.rows, columns=columns, seed=seed)
        )
        session = db.session(
            "holistic",
            num_workers=workers,
            batch_tuning=workers == 0,
            cache_target_elements=cache_target_elements,
            seed=seed,
        )
        kernel = session.strategy
        run = ParallelRun(workers=workers)
        for _ in range(max_windows):
            record = session.idle(actions=actions_per_window)
            run.windows += 1
            run.idle_consumed_s += record.consumed_s
            states = kernel.ranking.states()
            if states and all(
                kernel.ranking.is_refined(state) for state in states
            ):
                run.converged = True
                break
        if not run.converged:
            raise BenchmarkError(
                f"{workers}-worker run did not converge within "
                f"{max_windows} windows of {actions_per_window} actions"
            )
        summary = kernel.tuning_summary()
        run.actions_attempted = summary.actions_attempted
        run.actions_effective = summary.actions_effective
        run.busy_s = (
            summary.busy_s if summary.busy_s > 0 else run.idle_consumed_s
        )
        run.stalls = kernel.tape.stall_count()
        result.runs[workers] = run
    return result


def expp_rows(result: ParallelSweepResult) -> list[list[str]]:
    """The sweep as printable table rows."""
    baseline = None
    for workers in result.worker_counts:
        if workers >= 1:
            baseline = result.run_for(workers).idle_consumed_s
            break
    rows: list[list[str]] = []
    for workers in result.worker_counts:
        run = result.run_for(workers)
        label = "serial" if workers == 0 else f"{workers} worker(s)"
        speedup = (
            f"{baseline / run.idle_consumed_s:.2f}x"
            if baseline and run.idle_consumed_s > 0 and workers >= 1
            else "-"
        )
        rows.append(
            [
                label,
                str(run.windows),
                format_seconds(run.idle_consumed_s),
                format_seconds(run.busy_s),
                speedup,
                str(run.actions_effective),
                str(run.stalls),
            ]
        )
    return rows


def expp_text(result: ParallelSweepResult) -> str:
    """Render the convergence-vs-cores table."""
    headers = [
        "Tuning",
        "Windows",
        "Idle elapsed",
        "Idle busy",
        "Speedup",
        "Actions",
        "Stalls",
    ]
    title = (
        f"ExpP ({result.scale.name} scale, projected to paper scale): "
        f"idle time to refine {result.columns} column(s) to "
        f"{result.cache_target_elements}-row pieces, windows of "
        f"{result.actions_per_window} actions"
    )
    return f"{title}\n{format_table(headers, expp_rows(result))}"
