"""The concurrent multi-client serving front-end.

N clients submit range queries against **one** shared kernel; a window
former coalesces their in-flight queries into cross-session windows.
One pass over a window validates its entries and deals them to their
clients' *lanes*; each column's ranges with a bound that is not yet a
cut of the shared index are cracked in one silent physical pass
(:meth:`CrackerIndex.crack_bounds_batch`) -- a converged window has
none and skips it -- and then every lane replays its share through
the one window loop, :meth:`~repro.engine.session.Session.run_window`.
A lane is a :class:`~repro.engine.session.Session` on a private
:class:`~repro.simtime.clock.SimClock` fork whose replay slots are its
own shadow replay per column
(:class:`~repro.cracking.batch.DetachedCrackReplay`), so a converged
read is priced in one step there.

The core invariant, the multi-tenant generalization of a session
window's batch==sequential guarantee:

    **per-client accounting is bit-for-bit what that client would have
    measured running alone against a fresh kernel**, no matter how the
    former interleaves clients, how deep the windows are, or what idle
    windows do to the shared index between served windows.

It holds because a crack's position is order independent (the cut for
``v`` always lands at the number of elements ``< v``), so the shared
physical index -- which accumulates the *union* of everyone's cracks --
can serve every client's solo piece boundaries, while each client's
shadow map evolves exactly as its solo piece map would.  The physical
work is paid once; the per-client replays are pure accounting.

Concurrency: the front-end is a serial loop (one window at a time --
concurrency between clients is *logical*, expressed by window
coalescing).  Tuning workers run only inside an idle window
(:meth:`~repro.holistic.workers.TuningWorkerPool.run_window`), which
returns before the next served window starts.

Shared mutable state the serving loop does not own -- pending-update
delta stores in particular -- must stay unmutated for the duration of
a run; stage updates between runs, as the benchmarks do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro import faults
from repro.cracking.batch import DetachedCrackReplay
from repro.cracking.index import CrackerIndex
from repro.cracking.tape import CrackTape
from repro.engine.operators import pending_slots
from repro.engine.plan import Resolved, group_by_column
from repro.engine.query import RangeQuery
from repro.engine.session import Session, SessionReport
from repro.engine.strategies import AdaptiveStrategy, IndexingStrategy
from repro.errors import ConfigError
from repro.serving.window import CrossSessionWindowFormer, WindowEntry
from repro.simtime.clock import SimClock
from repro.storage.catalog import ColumnRef
from repro.storage.database import Database
from repro.storage.dtypes import Key
from repro.storage.views import (
    MaterializedResult,
    PositionsView,
    SelectionResult,
)


class ClientLane(Session):
    """One client of a shared kernel: a :class:`Session` on its own
    clock fork.

    Besides the session's report (client-tagged totals, and records
    if a sink is handed in) and clock, a lane owns its solo-trajectory
    shadow replays (one per column, created on first touch) and its
    crack tape -- everything a solo session would have produced, kept
    bit-identical under serving.  The front-end deals each window's
    reads to their lanes, one ``(replay, bounds)`` slot a read, and
    runs every lane's share through :meth:`Session.run_window`.
    """

    def __init__(
        self,
        name: str,
        db: Database,
        strategy: IndexingStrategy,
        clock: SimClock,
    ) -> None:
        super().__init__(db, strategy, client=name)
        self.clock = clock
        self.tape = CrackTape()
        self.replays: dict[ColumnRef, DetachedCrackReplay] = {}

    def shadow_state(self) -> dict[ColumnRef, tuple[list, list]]:
        """Per-column (pivots, cuts) of this client's shadow maps --
        the client's solo piece-map trajectory."""
        return {
            key: (replay.sim.pivots(), replay.sim.cuts())
            for key, replay in sorted(self.replays.items())
        }


class _ServedReplay(DetachedCrackReplay):
    """A client's column replay behind the ``serving.replay`` fault
    ladder, tripped once per served read, converged or not: a failed
    read is retried once solo -- a failed bisect replay alone, its
    overhead already charged -- and if the retry also blows up the
    query is answered by a base-column scan.  Either way the incident
    is recorded as a :class:`ClientFault` and only this client's
    accounting can deviate -- the injected trip fires *before* the
    replay touches any state, so healthy clients (and the clean path)
    stay bit-identical to solo."""

    __slots__ = ("_frontend", "_client", "_ref")

    def replay_query(self, low: Key, high: Key) -> SelectionResult:
        try:
            faults.trip("serving.replay")
            return DetachedCrackReplay.replay_query(self, low, high)
        except Exception as exc:
            return self._recover(
                DetachedCrackReplay.replay_query, low, high, exc
            )

    def replay(self, low: Key, high: Key) -> SelectionResult:
        # A read with a fresh bound, its overhead already charged: a
        # failure here retries the bisect replay alone.
        try:
            return DetachedCrackReplay.replay(self, low, high)
        except Exception as exc:
            return self._recover(DetachedCrackReplay.replay, low, high, exc)

    def _recover(self, replay, low, high, error) -> SelectionResult:
        try:
            faults.trip("serving.replay")
            result = replay(self, low, high)
            action = "retried_solo"
        except Exception as exc:
            # The last resort bypasses the index entirely and costs the
            # per-query overhead alone (replay_query charged it before a
            # bisect replay); pending updates are merged by the caller
            # as for a crack result.
            if replay is DetachedCrackReplay.replay_query:
                self._clock.charge_query()
            values = self._frontend.db.catalog.column(self._ref).values
            mask = (values >= low) & (values < high)
            result = PositionsView(values, np.flatnonzero(mask))
            action = "scan_fallback"
            error = exc
        self._frontend.faults.append(
            ClientFault(
                client=self._client,
                query=RangeQuery(self._ref, low, high),
                kind="poison",
                action=action,
                error=str(error),
            )
        )
        faults.recovered_matching(
            "serving.replay", f"client {self._client!r}: {action}"
        )
        return result


class _Deal:
    """One lane's share of a window: its reads in window order, their
    positions in the window, and the replay and pending-update slots
    the lane's window loop runs them on."""

    __slots__ = ("lane", "queries", "positions", "slots", "pending")

    def __init__(self, lane: ClientLane) -> None:
        self.lane = lane
        self.queries: list[RangeQuery] = []
        self.positions: list[int] = []
        self.slots: list = []
        self.pending: list = []


@dataclass(slots=True)
class ClientFault:
    """One client failure the front-end isolated and survived.

    ``kind`` is ``"malformed"`` (the query itself was invalid -- e.g.
    an inverted range smuggled past :class:`RangeQuery` validation) or
    ``"poison"`` (the query's replay blew up mid-window).  ``action``
    records the degraded-mode step that answered it: ``"rejected"``
    (empty result, no accounting), ``"retried_solo"`` (second replay
    attempt succeeded) or ``"scan_fallback"`` (answered by a direct
    base-column scan, bypassing the index entirely).
    """

    client: str
    query: RangeQuery
    kind: str
    action: str
    error: str = ""


@dataclass(slots=True)
class ServingReport:
    """Aggregate outcome of one serving run."""

    strategy: str
    clients: dict[str, SessionReport]
    windows: int = 0
    #: Client failures isolated in degraded mode (aliases the
    #: front-end's cumulative list).
    faults: list[ClientFault] = field(default_factory=list)


class ServingFrontend:
    """A shared kernel serving many logical clients concurrently.

    Args:
        db: the shared database.
        strategy: the shared kernel -- standard adaptive cracking,
            the holistic kernel included.  Stochastic variants make
            order-dependent refinement decisions, which cannot keep
            per-client accounting solo-identical, so they are rejected.
        depth: per-client depth of the closed-loop
            :class:`CrossSessionWindowFormer` that forms the windows.

    Raises:
        ConfigError: for a strategy that cannot serve concurrently.
    """

    def __init__(
        self,
        db: Database,
        strategy: IndexingStrategy,
        depth: int = 8,
    ) -> None:
        self.db = db
        self.strategy = strategy
        if not isinstance(strategy, AdaptiveStrategy):
            raise ConfigError(
                f"strategy {strategy.name!r} has no concurrent serving "
                "path; use standard adaptive cracking or the holistic "
                "kernel"
            )
        if strategy.variant != "standard":
            raise ConfigError(
                f"adaptive variant {strategy.variant!r} makes "
                "order-dependent refinement decisions; only "
                "'standard' can serve concurrently"
            )
        self.former = CrossSessionWindowFormer(depth)
        self.lanes: dict[str, ClientLane] = {}
        self.windows_served = 0
        #: Every column served so far, resolved once (see
        #: :func:`~repro.engine.plan.group_by_column`).
        self._resolved: Resolved = {}
        #: Client failures isolated in degraded mode, across every
        #: window this front-end has served.
        self.faults: list[ClientFault] = []

    # -- clients ---------------------------------------------------------

    def add_client(
        self,
        name: str,
        queries: Sequence[RangeQuery] = (),
    ) -> ClientLane:
        """Register a client lane and admit its queries.

        Raises:
            ConfigError: on a duplicate client name.
        """
        if name in self.lanes:
            raise ConfigError(f"client {name!r} already registered")
        lane = ClientLane(name, self.db, self.strategy, self._fork_clock())
        self.lanes[name] = lane
        if len(queries):
            self.former.admit(name, queries)
        return lane

    def submit(
        self,
        name: str,
        queries: Sequence[RangeQuery],
    ) -> None:
        """Admit more queries for an existing client.

        Raises:
            ConfigError: for an unknown client.
        """
        if name not in self.lanes:
            raise ConfigError(f"unknown client {name!r}; add_client first")
        self.former.admit(name, queries)

    def _fork_clock(self) -> SimClock:
        clock = self.db.clock
        if isinstance(clock, SimClock):
            return clock.fork()
        return SimClock(self.db.cost_model)

    # -- the serving loop ------------------------------------------------

    def run(self) -> ServingReport:
        """Serve windows until every admitted query is answered."""
        report = ServingReport(
            strategy=self.strategy.name,
            clients={
                name: lane.report for name, lane in self.lanes.items()
            },
            faults=self.faults,
        )
        while True:
            entries = self.former.next_window()
            if not entries:
                break
            self.serve_window(entries)
            report.windows += 1
        return report

    def serve_window(
        self, entries: list[WindowEntry]
    ) -> list[SelectionResult]:
        """Execute one formed window; results align with ``entries``.

        One pass validates the window and deals its reads to their
        lanes.  One silent physical pass per column then cracks the
        union of every client's bounds not cut yet, and each client's
        share replays on its own lane in stream order.

        Degraded mode: a malformed entry (inverted range smuggled past
        :class:`RangeQuery` validation) is rejected *per entry* -- it
        gets an empty result and a :class:`ClientFault`, and never
        touches the shared index, so every other client in the window
        is served exactly as if the bad entry had not existed.

        Raises:
            ConfigError: for an entry from an unregistered client (a
                caller bug, not a client fault).
        """
        if not entries:
            return []
        lanes = self.lanes
        deals: dict[str, _Deal] = {}
        queries: list[RangeQuery] = []
        owners: list[_Deal] = []
        rejected: list[int] = []
        for i, entry in enumerate(entries):
            client = entry.client
            deal = deals.get(client)
            if deal is None and client not in lanes:
                raise ConfigError(
                    f"window entry from unknown client {client!r}"
                )
            query = entry.query
            if query.low > query.high:
                rejected.append(i)
                continue
            if deal is None:
                deal = deals[client] = _Deal(lanes[client])
            deal.queries.append(query)
            deal.positions.append(i)
            queries.append(query)
            owners.append(deal)
        results: list[SelectionResult | None] = [None] * len(entries)
        for i in rejected:
            results[i] = self._reject(entries[i])
        if queries:
            self._serve_reads(queries, owners, deals, results)
        self.windows_served += 1
        return results  # type: ignore[return-value]

    def _reject(self, entry: WindowEntry) -> SelectionResult:
        """A malformed entry's fault and empty answer."""
        query = entry.query
        self.faults.append(
            ClientFault(
                client=entry.client,
                query=query,
                kind="malformed",
                action="rejected",
                error=f"range inverted: low={query.low} > high={query.high}",
            )
        )
        column = self.db.catalog.column(query.ref)
        return MaterializedResult(np.empty(0, dtype=column.values.dtype))

    def _serve_reads(
        self,
        queries: list[RangeQuery],
        owners: list[_Deal],
        deals: dict[str, _Deal],
        results: list,
    ) -> None:
        """Plan a window's valid reads (``owners[i]`` dealt read
        ``i``), then run the physical pass and every lane's replay.  A
        read's slot is its lane's replay of its column (created on the
        client's first touch of it, from the virgin column state) and
        its normalised bounds."""
        # Resolves every column before the first crack: an unknown
        # column must fail with the shared index untouched.
        windows = group_by_column(queries, self.db.catalog, self._resolved)
        indexes: dict[ColumnRef, CrackerIndex] = {}
        for window in windows:
            indexes[window.ref] = self.strategy.index_for(window.ref)
        for window in windows:
            # A range whose bounds are all cuts of the index's current
            # piece map (a top is never one) needs no pass; each lane's
            # replays read every position there.
            cut_of = indexes[window.ref].piece_map.cut_of
            top = window.top
            unknown = []
            for low, high in window.ranges:
                if low not in cut_of or (high <= top and high not in cut_of):
                    unknown.append((low, high))
            if unknown:
                indexes[window.ref].crack_bounds_batch(unknown)
        # One pending-updates consultation per column, shared by every
        # client; each lane's overlays charge its own clock.
        pending = pending_slots(windows, len(owners))
        slots: list = [None] * len(owners)
        for window in windows:
            ref = window.ref
            for i, bounds in zip(window.indices, window.bounds):
                lane = owners[i].lane
                replay = lane.replays.get(ref)
                if replay is None:
                    replay = lane.replays[ref] = _ServedReplay.solo(
                        indexes[ref], lane.tape
                    )
                    replay._frontend = self
                    replay._client = lane.client
                    replay._ref = ref
                slots[i] = (replay, bounds)
        for deal, slot, slotted in zip(owners, slots, pending):
            deal.slots.append(slot)
            deal.pending.append(slotted)
        for deal in deals.values():
            served = deal.lane.run_window(
                deal.queries, deal.slots, deal.pending
            )
            for i, result in zip(deal.positions, served):
                results[i] = result
