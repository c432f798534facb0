"""Workload streams: interleaved query and idle events.

A stream is what a session consumes: an ordered sequence of
:class:`QueryEvent` and :class:`IdleEvent`.  The paper controls idle
time explicitly (manually enforced windows), which maps one-to-one
onto idle events carrying either a duration or an action count.
:func:`run_stream` feeds one to a session, one event at a time: the
paper's kernel has no query window, a query cracks when it arrives.
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
    """Feed a stream of events to a session, in order; returns its
    report.

    A query event goes through :meth:`Session.run_query`, an idle
    event through :meth:`Session.idle`.

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
