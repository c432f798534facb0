"""Workload streams: interleaved query and idle events.

A stream is what a session consumes: an ordered sequence of
:class:`QueryEvent` and :class:`IdleEvent`.  The paper controls idle
time explicitly (manually enforced windows), which maps one-to-one
onto idle events carrying either a duration or an action count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from repro.engine.query import RangeQuery
from repro.engine.session import Session, SessionReport
from repro.errors import WorkloadError


@dataclass(frozen=True, slots=True)
class QueryEvent:
    """One query arrival."""

    query: RangeQuery


@dataclass(frozen=True, slots=True)
class IdleEvent:
    """One idle window, as a duration or an action budget."""

    seconds: float | None = None
    actions: int | None = None

    def __post_init__(self) -> None:
        if self.seconds is None and self.actions is None:
            raise WorkloadError(
                "IdleEvent needs seconds= or actions="
            )
        if self.seconds is not None and self.seconds < 0:
            raise WorkloadError(f"negative idle time: {self.seconds}")
        if self.actions is not None and self.actions < 0:
            raise WorkloadError(f"negative idle actions: {self.actions}")


WorkloadEvent = Union[QueryEvent, IdleEvent]


def run_stream(
    session: Session, events: Iterable[WorkloadEvent]
) -> SessionReport:
    """Feed a stream of events to a session; returns its report.

    Raises:
        WorkloadError: on an unknown event type.
    """
    for event in events:
        if isinstance(event, QueryEvent):
            session.run_query(event.query)
        elif isinstance(event, IdleEvent):
            session.idle(seconds=event.seconds, actions=event.actions)
        else:
            raise WorkloadError(f"unknown workload event: {event!r}")
    return session.report


def run_stream_batched(
    session: Session,
    events: Iterable[WorkloadEvent],
    window: int,
) -> SessionReport:
    """Feed a stream to a session, batching query runs of up to
    ``window`` consecutive queries through :meth:`Session.run_batch`.

    Idle events flush the current window first, so event order is
    respected; a window of one goes through the plain query path.
    Semantically identical to :func:`run_stream` -- batching only
    amortizes the physical work (see ISSUE 4).

    Raises:
        WorkloadError: if ``window`` is not positive, or on an unknown
            event type.
    """
    if window <= 0:
        raise WorkloadError(f"window must be positive: {window}")
    if isinstance(events, (list, tuple)) and all(
        isinstance(event, QueryEvent) for event in events
    ):
        # Pure query streams (no idle windows) batch by direct
        # slicing, skipping the per-event buffering below.
        queries = [event.query for event in events]
        for start in range(0, len(queries), window):
            chunk = queries[start : start + window]
            if len(chunk) == 1:
                session.run_query(chunk[0])
            else:
                session.run_batch(chunk)
        return session.report
    buffer: list[RangeQuery] = []

    def flush() -> None:
        if not buffer:
            return
        if len(buffer) == 1:
            session.run_query(buffer[0])
        else:
            session.run_batch(buffer)
        buffer.clear()

    for event in events:
        if isinstance(event, QueryEvent):
            buffer.append(event.query)
            if len(buffer) >= window:
                flush()
        elif isinstance(event, IdleEvent):
            flush()
            session.idle(seconds=event.seconds, actions=event.actions)
        else:
            raise WorkloadError(f"unknown workload event: {event!r}")
    flush()
    return session.report


class QueryStream:
    """A reusable workload stream with serial and windowed execution.

    Wraps an event sequence (materialized on construction so it can be
    replayed against several sessions) and exposes the two execution
    modes side by side: :meth:`run` feeds queries one at a time;
    :meth:`run_windowed` groups up to ``window`` consecutive queries
    into shared-work batches (the streaming variant of
    :meth:`Session.run_batch`).
    """

    def __init__(self, events: Iterable[WorkloadEvent]) -> None:
        self.events: list[WorkloadEvent] = list(events)

    @property
    def query_count(self) -> int:
        return sum(
            1 for event in self.events if isinstance(event, QueryEvent)
        )

    def run(self, session: Session) -> SessionReport:
        return run_stream(session, self.events)

    def run_windowed(self, session: Session, window: int) -> SessionReport:
        return run_stream_batched(session, self.events, window)

    def __len__(self) -> int:
        return len(self.events)
