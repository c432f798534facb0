"""Ablation benches for the kernel's design choices.

A1 -- *resource-spreading policies*: round-robin (the paper's
baseline) vs the ranked scheme ("a more sophisticated approach can
rank the columns depending on the frequency of appearance in the
workload") vs weighted-random, on a skewed multi-column workload where
ranking information actually matters.

A2 -- *stochastic cracking*: plain cracking vs DDC/DDR/MDD1R on a
sequential range sweep, the workload [10] shows plain cracking
degrades on.

A3 -- *the cache-fit stopping criterion*: holistic tuning with
different cache targets, showing refinement past L1-sized pieces stops
paying (paper §3, Modeling).

A4 -- *batched idle tuning*: one pivot at a time vs all of a piece's
pivots "in one go", for the same action budget (paper §3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import ScaleSpec, scale_by_name
from repro.simtime.clock import SimClock
from repro.storage.catalog import ColumnRef
from repro.storage.database import Database
from repro.storage.loader import build_paper_table
from repro.workload.generators import (
    MultiColumnGenerator,
    SequentialRangeGenerator,
    UniformRangeGenerator,
)
from repro.bench.report import format_table

_DOMAIN_LOW = 1.0
_DOMAIN_HIGH = 100_000_000.0


@dataclass(slots=True)
class AblationRow:
    """One configuration's outcome."""

    label: str
    total_response_s: float
    detail: str = ""


def _database(scale: ScaleSpec, columns: int, seed: int) -> Database:
    db = Database(clock=SimClock(scale.cost_model()))
    db.add_table(
        build_paper_table(rows=scale.rows, columns=columns, seed=seed)
    )
    return db


def ablation_policies(
    scale: ScaleSpec | str = "small",
    seed: int = 42,
    columns: int = 4,
    idle_actions: int = 200,
) -> list[AblationRow]:
    """A1: tuning policies under a skewed column popularity (80/10/...)."""
    if isinstance(scale, str):
        scale = scale_by_name(scale)
    weights = [8.0] + [1.0] * (columns - 1)
    rows: list[AblationRow] = []
    for policy in ("round_robin", "ranked", "weighted_random"):
        db = _database(scale, columns, seed)
        session = db.session("holistic", policy=policy, seed=seed)
        refs = [ColumnRef("R", f"A{i}") for i in range(1, columns + 1)]
        generators = [
            UniformRangeGenerator(
                ref, _DOMAIN_LOW, _DOMAIN_HIGH, 0.01, seed=seed + i
            )
            for i, ref in enumerate(refs)
        ]
        multi = MultiColumnGenerator(
            generators, mode="weighted", weights=weights, seed=seed
        )
        # Warm-up queries teach the monitor the skew, then one big idle
        # window, then the measured burst.
        for query in multi.queries(50):
            session.run_query(query)
        warmup_s = session.report.total_response_s
        session.idle(actions=idle_actions)
        for query in multi.queries(scale.query_count):
            session.run_query(query)
        rows.append(
            AblationRow(
                label=policy,
                total_response_s=(
                    session.report.total_response_s - warmup_s
                ),
                detail=f"idle actions={idle_actions}",
            )
        )
    return rows


def ablation_stochastic(
    scale: ScaleSpec | str = "small", seed: int = 42
) -> list[AblationRow]:
    """A2: plain vs stochastic cracking on a sequential range sweep."""
    if isinstance(scale, str):
        scale = scale_by_name(scale)
    rows: list[AblationRow] = []
    for variant in ("standard", "ddc", "ddr", "mdd1r"):
        db = _database(scale, 1, seed)
        session = db.session("adaptive", variant=variant, seed=seed)
        generator = SequentialRangeGenerator(
            ColumnRef("R", "A1"), _DOMAIN_LOW, _DOMAIN_HIGH, 0.01
        )
        for query in generator.queries(scale.query_count):
            session.run_query(query)
        rows.append(
            AblationRow(
                label=variant,
                total_response_s=session.report.total_response_s,
                detail="sequential sweep, 1% selectivity",
            )
        )
    return rows


def ablation_cache_target(
    scale: ScaleSpec | str = "small",
    seed: int = 42,
    targets: tuple[int, ...] = (512, 8_192, 131_072, 2_097_152),
    idle_actions: int = 2_000,
) -> list[AblationRow]:
    """A3: vary the cache-fit target (in paper-scale elements)."""
    if isinstance(scale, str):
        scale = scale_by_name(scale)
    rows: list[AblationRow] = []
    for target in targets:
        local_target = max(1, int(target / scale.projection))
        db = _database(scale, 1, seed)
        session = db.session(
            "holistic", cache_target_elements=local_target, seed=seed
        )
        ref = ColumnRef("R", "A1")
        generator = UniformRangeGenerator(
            ref, _DOMAIN_LOW, _DOMAIN_HIGH, 0.01, seed=seed
        )
        # One observation so the monitor knows the column, then tune.
        session.run_query(generator.next_query())
        warmup_s = session.report.total_response_s
        session.idle(actions=idle_actions)
        for query in generator.queries(scale.query_count):
            session.run_query(query)
        kernel = session.strategy
        pieces = kernel.index_for(ref).piece_count  # type: ignore[attr-defined]
        rows.append(
            AblationRow(
                label=f"target={target} elems (paper scale)",
                total_response_s=(
                    session.report.total_response_s - warmup_s
                ),
                detail=f"pieces={pieces}",
            )
        )
    return rows


def ablation_batch_tuning(
    scale: ScaleSpec | str = "small",
    seed: int = 42,
    columns: int = 5,
    idle_actions: int = 500,
) -> list[AblationRow]:
    """A4: one-at-a-time vs batched ("in one go") idle refinement.

    Both kernels receive the same action budget over the same columns;
    the batched kernel answers the paper's §3 question by partitioning
    each touched piece once for all its pivots.  Reported: the idle
    window's virtual cost and the subsequent workload's response time.
    """
    if isinstance(scale, str):
        scale = scale_by_name(scale)
    rows: list[AblationRow] = []
    for batched in (False, True):
        db = _database(scale, columns, seed)
        session = db.session(
            "holistic", batch_tuning=batched, seed=seed
        )
        idle = session.idle(actions=idle_actions)
        refs = [ColumnRef("R", f"A{i}") for i in range(1, columns + 1)]
        generators = [
            UniformRangeGenerator(
                ref, _DOMAIN_LOW, _DOMAIN_HIGH, 0.01, seed=seed + i
            )
            for i, ref in enumerate(refs)
        ]
        multi = MultiColumnGenerator(generators, mode="round_robin")
        for query in multi.queries(scale.query_count):
            session.run_query(query)
        rows.append(
            AblationRow(
                label="batched" if batched else "sequential",
                total_response_s=session.report.total_response_s,
                detail=(
                    f"idle window cost {idle.consumed_s:.2f} s for "
                    f"{idle.actions_done} effective actions"
                ),
            )
        )
    return rows


def ablation_text(title: str, rows: list[AblationRow]) -> str:
    body = format_table(
        ["configuration", "total response (s)", "detail"],
        [
            [row.label, f"{row.total_response_s:.3f}", row.detail]
            for row in rows
        ],
    )
    return f"{title}\n{body}"
