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


def run_stream_batched(
    session: Session,
    events: Iterable[WorkloadEvent],
    window: int,
) -> SessionReport:
    """Feed a stream of events to a session; returns its report.

    Query runs of up to ``window`` consecutive queries go through
    :meth:`Session.run_batch`; idle events flush the current window
    first, so event order is respected.  A window of one goes through
    the plain query path (:meth:`Session.run_query` per query,
    :meth:`Session.idle` per idle event), and any window answers and
    charges the same.

    Raises:
        WorkloadError: if ``window`` is not positive, or on an unknown
            event type.
    """
    if window <= 0:
        raise WorkloadError(f"window must be positive: {window}")
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
    """A reusable workload stream.

    Wraps an event sequence (materialized on construction so it can be
    replayed against several sessions); :meth:`run_windowed` groups up
    to ``window`` consecutive queries into :meth:`Session.run_batch`
    windows, a window of one feeding queries one at a time.
    """

    def __init__(self, events: Iterable[WorkloadEvent]) -> None:
        self.events: list[WorkloadEvent] = list(events)

    def run_windowed(self, session: Session, window: int) -> SessionReport:
        return run_stream_batched(session, self.events, window)

    def __len__(self) -> int:
        return len(self.events)
