"""The concurrent multi-client serving front-end (ISSUE 5).

N clients submit range queries against **one** shared kernel; a window
former coalesces their in-flight queries into cross-session windows;
each window cracks, in one silent physical pass per column
(:meth:`CrackerIndex.crack_bounds_batch`), the ranges with a bound
whose cut position the front-end has not yet seen -- a converged
window has none and skips the pass -- and then replays every
client's accounting on that client's own *lane* -- a
:class:`~repro.engine.session.Session` on a private
:class:`~repro.simtime.clock.SimClock` fork, replaying through the
strategy's own batch execution over a detached shadow replay per
column (:class:`~repro.cracking.batch.DetachedCrackReplay`).

The core invariant, the multi-tenant generalization of ISSUE 4's
batch==sequential guarantee:

    **per-client accounting is bit-for-bit what that client would have
    measured running alone against a fresh kernel**, no matter how the
    former interleaves clients, how deep the windows are, or what
    background tuning workers do to the shared index in the meantime.

It holds because a crack's position is order independent (the cut for
``v`` always lands at the number of elements ``< v``), so the shared
physical index -- which accumulates the *union* of everyone's cracks --
can serve every client's solo piece boundaries, while each client's
shadow map evolves exactly as its solo piece map would.  The physical
work is paid once; the per-client replays are pure accounting.

Concurrency: the front-end itself is a serial loop (one window at a
time -- concurrency between clients is *logical*, expressed by window
coalescing), but it coexists with a running
:class:`~repro.holistic.workers.TuningWorkerPool`: while workers are
racing, each window holds its columns' table-level latches so worker
cracks interleave *between* windows, never mid-replay.

Shared mutable state the serving loop does not own -- pending-update
delta stores in particular -- must stay unmutated for the duration of
a run; stage updates between runs, as the benchmarks do.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro import faults
from repro.cracking.batch import DetachedCrackReplay
from repro.cracking.piecemap import PieceMap
from repro.cracking.tape import CrackTape
from repro.engine.operators import pending_slots
from repro.engine.plan import group_by_column
from repro.engine.query import RangeQuery
from repro.engine.session import Session, SessionReport
from repro.engine.strategies import AdaptiveStrategy, IndexingStrategy
from repro.errors import ConfigError
from repro.holistic.kernel import HolisticKernel
from repro.serving.window import CrossSessionWindowFormer, WindowEntry
from repro.simtime.clock import SimClock
from repro.storage.catalog import ColumnRef
from repro.storage.database import Database
from repro.storage.dtypes import Key, largest
from repro.storage.views import (
    MaterializedResult,
    PositionsView,
    SelectionResult,
)


class ClientLane(Session):
    """One client of a shared kernel: a :class:`Session` on its own
    clock fork.

    Besides the session's report (client-tagged query records) and
    clock, a lane owns its solo-trajectory shadow replays (one per
    column, created on first touch) and its crack tape -- everything a
    solo session would have produced, kept bit-identical under
    serving.  The front-end drives it window by window through
    :meth:`Session.run_window`.
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
        self.replays: dict[tuple[str, str], DetachedCrackReplay] = {}

    @property
    def query_count(self) -> int:
        return len(self.report.queries)

    def shadow_state(self) -> dict[tuple[str, str], tuple[list, list]]:
        """Per-column (pivots, cuts) of this client's shadow maps --
        the client's solo piece-map trajectory."""
        return {
            key: (list(replay.sim.pivots), list(replay.sim.cuts))
            for key, replay in sorted(self.replays.items())
        }


class _ServedReplay(DetachedCrackReplay):
    """A client's column replay behind the ``serving.replay`` fault
    ladder: a failed replay is retried once solo, and if the retry
    also blows up the query is answered by a base-column scan.  Either
    way the incident is recorded as a :class:`ClientFault` and only
    this client's accounting can deviate -- the injected trip fires
    *before* the replay touches any state, so healthy clients (and the
    clean path) stay bit-identical to solo."""

    __slots__ = ("_frontend", "_client", "_ref")

    def replay(self, low: Key, high: Key) -> SelectionResult:
        try:
            faults.trip("serving.replay")
            return DetachedCrackReplay.replay(self, low, high)
        except Exception as exc:
            return self._recover(DetachedCrackReplay.replay, low, high, exc)

    def _recover(self, replay, low, high, error) -> SelectionResult:
        try:
            faults.trip("serving.replay")
            result = replay(self, low, high)
            action = "retried_solo"
        except Exception as exc:
            # The last resort bypasses the index entirely; pending
            # updates are merged by the caller as for a crack result.
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
    window_sizes: list[int] = field(default_factory=list)
    #: Client failures isolated in degraded mode (aliases the
    #: front-end's cumulative list).
    faults: list[ClientFault] = field(default_factory=list)

    @property
    def total_queries(self) -> int:
        return sum(len(r.queries) for r in self.clients.values())


class ServingFrontend:
    """A shared kernel serving many logical clients concurrently.

    Args:
        db: the shared database.
        strategy: the shared kernel -- standard adaptive cracking or a
            holistic kernel.  Stochastic adaptive variants make
            order-dependent refinement decisions, and the holistic
            no-idle hot boost mutates the index mid-query from shared
            statistics; neither can keep per-client accounting
            solo-identical, so they are rejected.
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
        if isinstance(strategy, HolisticKernel):
            config = strategy.config
            if (
                config.hot_column_threshold > 0
                and config.hot_boost_cracks > 0
            ):
                raise ConfigError(
                    "the holistic hot-range boost mutates the shared "
                    "index from shared statistics mid-query; disable it "
                    "(hot_column_threshold=0) to serve concurrently"
                )
        elif isinstance(strategy, AdaptiveStrategy):
            if strategy.variant != "standard":
                raise ConfigError(
                    f"adaptive variant {strategy.variant!r} makes "
                    "order-dependent refinement decisions; only "
                    "'standard' can serve concurrently"
                )
        else:
            raise ConfigError(
                f"strategy {strategy.name!r} has no concurrent serving "
                "path; use standard adaptive cracking or the holistic "
                "kernel"
            )
        self.former = CrossSessionWindowFormer(depth)
        self.lanes: dict[str, ClientLane] = {}
        #: Per-column order-independent cut positions accumulated over
        #: every window's physical pass; each lane's replays resolve
        #: their fresh bounds here.  A bound found here is already a
        #: cut of the piece map in ``_mapped`` (a piece map never drops
        #: a pivot), so its window skips the physical pass.
        self._positions: dict[tuple[str, str], dict[Key, int]] = {}
        #: Per column, the :class:`PieceMap` whose cuts ``_positions``
        #: holds.
        self._mapped: dict[tuple[str, str], PieceMap] = {}
        self.windows_served = 0
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
            report.window_sizes.append(len(entries))
            report.windows += 1
        return report

    def serve_window(
        self, entries: list[WindowEntry]
    ) -> list[SelectionResult]:
        """Execute one formed window; results align with ``entries``.

        One silent physical pass per column cracks the union of every
        client's bounds not cut yet (under the columns' table latches
        while tuning workers race), then each client's slice of the
        window replays on its own lane in stream order.

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
        for entry in entries:
            if entry.client not in self.lanes:
                raise ConfigError(
                    f"window entry from unknown client {entry.client!r}"
                )
        results: list[SelectionResult | None] = [None] * len(entries)
        live: list[int] = []
        for i, entry in enumerate(entries):
            query = entry.query
            if query.low > query.high:
                column = self.db.catalog.column(query.ref)
                self.faults.append(
                    ClientFault(
                        client=entry.client,
                        query=query,
                        kind="malformed",
                        action="rejected",
                        error=(
                            f"range inverted: low={query.low} > "
                            f"high={query.high}"
                        ),
                    )
                )
                results[i] = MaterializedResult(
                    np.empty(0, dtype=column.values.dtype)
                )
            else:
                live.append(i)
        if live:
            served = self._serve_entries([entries[i] for i in live])
            for slot, result in zip(live, served):
                results[slot] = result
        self.windows_served += 1
        return results  # type: ignore[return-value]

    def _serve_entries(
        self, entries: list[WindowEntry]
    ) -> list[SelectionResult]:
        """The physical pass + per-lane replay of a window's valid
        entries."""
        queries = [entry.query for entry in entries]
        # Resolves every column before the first crack: an unknown
        # column must fail with the shared index untouched.
        windows = group_by_column(queries, self.db.catalog)
        bounds: list = [None] * len(entries)
        for window in windows:
            for i, pair in zip(window.indices, window.bounds):
                bounds[i] = pair
        pool = getattr(self.strategy, "worker_pool", None)
        if pool is not None and not pool.is_running:
            pool = None
        with ExitStack() as latches:
            indexes = {
                (w.ref.table, w.ref.column): self.strategy.index_for(w.ref)
                for w in windows
            }
            if pool is not None:
                # Workers are racing: exclude them from every one of
                # this window's columns for the whole window, so their
                # cracks land between windows, never mid-replay.  The
                # table latches stack in sorted column order -- the
                # deterministic order the latch witness enforces.
                for key in sorted(indexes):
                    access = pool.register_index(
                        ColumnRef(*key), indexes[key]
                    )
                    latches.enter_context(access.exclusive())
            for window in windows:
                key = (window.ref.table, window.ref.column)
                index = indexes[key]
                positions = self._positions.setdefault(key, {})
                if self._mapped.get(key) is not index.piece_map:
                    # A rebuilt, repaired or restored index: the cuts
                    # the map remembers are not in its array.  Cleared
                    # in place -- the lanes' replays hold this dict.
                    positions.clear()
                    self._mapped[key] = index.piece_map
                top = largest(index.piece_map.dtype)
                unknown = [
                    (low, high)
                    for low, high in window.ranges
                    if low not in positions
                    or (high <= top and high not in positions)
                ]
                if unknown:
                    positions.update(index.crack_bounds_batch(unknown))
            # One pending-updates consultation per column, shared by
            # every client; each lane's overlays charge its own clock.
            pending = pending_slots(self.db.catalog, windows, len(entries))
            by_client: dict[str, list[int]] = {}
            for i, entry in enumerate(entries):
                by_client.setdefault(entry.client, []).append(i)
            results: list[SelectionResult | None] = [None] * len(entries)
            for name, slots in by_client.items():
                served = self._serve_lane(
                    name,
                    [queries[i] for i in slots],
                    [bounds[i] for i in slots],
                    [pending[i] for i in slots],
                    indexes,
                )
                for i, result in zip(slots, served):
                    results[i] = result
        return results  # type: ignore[return-value]

    def _serve_lane(
        self,
        name: str,
        queries: list[RangeQuery],
        bounds: list,
        overlays: list,
        indexes: dict[tuple[str, str], object],
    ) -> list[SelectionResult]:
        """Replay one client's share of the window on its lane: the
        strategy's batch execution over the lane's replay of each
        query's column (created on the client's first touch of it,
        from the virgin column state), through the lane's window
        loop."""
        lane = self.lanes[name]
        replays = lane.replays
        slots = []
        for query, pair in zip(queries, bounds):
            ref = query.ref
            key = (ref.table, ref.column)
            replay = replays.get(key)
            if replay is None:
                replay = replays[key] = _ServedReplay.solo(
                    indexes[key], self._positions[key], lane.tape
                )
                replay._frontend = self
                replay._client = name
                replay._ref = ref
            slots.append((replay, pair))
        execution = self.strategy.batch_execution(slots)
        return lane.run_window(queries, execution, overlays)
