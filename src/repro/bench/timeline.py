"""Figure 1: query-sequence evolution timelines.

The paper's Figure 1 is a conceptual drawing of *when* each approach
analyzes, builds, refines and idles.  We regenerate it as a concrete
trace: a small workload with idle windows runs under every strategy,
and the timeline lists -- in virtual-time order -- what each kernel
actually did (index builds, query bursts, auxiliary tuning, unexploited
idle), closing with the crack tape's per-origin counts of
query-driven and tuning-driven refinements.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import TINY, ScaleSpec
from repro.cracking.piece import CrackOrigin
from repro.engine.session import IdleRecord, QueryRecord
from repro.simtime.clock import SimClock
from repro.storage.database import Database
from repro.storage.loader import build_paper_table
from repro.workload.patterns import Exp1Pattern
from repro.workload.stream import run_stream
from repro.bench.report import format_seconds


@dataclass(frozen=True, slots=True)
class TimelineEvent:
    """One strategy-visible event on the virtual timeline."""

    at_s: float
    kind: str
    detail: str


def _strategy_timeline(
    strategy: str, scale: ScaleSpec, seed: int
) -> list[TimelineEvent]:
    db = Database(clock=SimClock(scale.cost_model()))
    db.add_table(build_paper_table(rows=scale.rows, columns=1, seed=seed))
    pattern = Exp1Pattern(
        query_count=min(scale.query_count, 300),
        refinements_per_idle=20,
        idle_every=100,
        seed=seed,
    )
    session = db.session(
        strategy,
        **(
            {"build_policy": "always_build"}
            if strategy == "offline"
            else {}
        ),
    )
    session.hint_workload(pattern.statements())
    records: list[QueryRecord | IdleRecord] = []
    session.report.records = records
    run_stream(session, pattern.events())

    # Idle windows and query bursts alternate; timestamps come from
    # the queries' finish times on the virtual clock.
    events: list[TimelineEvent] = []
    idle_iter = (r for r in records if isinstance(r, IdleRecord))
    first_idle = next(idle_iter, None)
    clock_cursor = 0.0
    if first_idle is not None:
        events.append(
            TimelineEvent(
                at_s=clock_cursor,
                kind="idle" if first_idle.actions_done == 0 else "tuning",
                detail=first_idle.note or "a-priori idle window",
            )
        )
        clock_cursor += first_idle.consumed_s
    burst_start = 0
    queries = [r for r in records if isinstance(r, QueryRecord)]
    per_burst = 100
    while burst_start < len(queries):
        burst = queries[burst_start : burst_start + per_burst]
        events.append(
            TimelineEvent(
                at_s=burst[0].finished_at - burst[0].response_s,
                kind="queries",
                detail=(
                    f"queries {burst[0].sequence}-{burst[-1].sequence} "
                    f"(burst response "
                    f"{format_seconds(sum(q.response_s for q in burst))})"
                ),
            )
        )
        next_idle = next(idle_iter, None)
        if next_idle is not None:
            events.append(
                TimelineEvent(
                    at_s=burst[-1].finished_at,
                    kind="tuning" if next_idle.actions_done else "idle",
                    detail=next_idle.note or "idle window",
                )
            )
        burst_start += per_burst

    strategy_obj = session.strategy
    tape = getattr(strategy_obj, "tape", None)
    if tape is not None and tape.count():
        query_cracks = tape.count(CrackOrigin.QUERY)
        tuning_cracks = tape.count(CrackOrigin.TUNING)
        events.append(
            TimelineEvent(
                at_s=queries[-1].finished_at if queries else 0.0,
                kind="summary",
                detail=(
                    f"refinements: {query_cracks} query-driven, "
                    f"{tuning_cracks} tuning-driven"
                ),
            )
        )
    builder = getattr(strategy_obj, "builder", None)
    if builder is not None:
        for ref, index in builder.indexes.items():
            if index.is_built:
                events.append(
                    TimelineEvent(
                        at_s=index.built_at or 0.0,
                        kind="build",
                        detail=f"full index on {ref} completed",
                    )
                )
    events.sort(key=lambda e: e.at_s)
    return events


def figure1_text(scale: ScaleSpec | None = None, seed: int = 42) -> str:
    """Render the per-strategy timelines."""
    scale = scale if scale is not None else TINY
    parts = ["Figure 1: query sequence evolution with indexing"]
    for strategy in ("offline", "online", "adaptive", "holistic"):
        lines = [f"\n[{strategy}]"]
        for event in _strategy_timeline(strategy, scale, seed):
            lines.append(
                f"  t={event.at_s:10.3f}s  {event.kind:<13s} "
                f"{event.detail}"
            )
        parts.append("\n".join(lines))
    return "\n".join(parts)
