"""The window accountant's pinned names.

Pinned by perfbench (ROADMAP 1a): its trace list resolves these
methods in :class:`WindowAccountant`'s own namespace.  Each forwards
onto its clock's event method; nothing in the engine calls them, as
every window binds its clock directly.
"""

from __future__ import annotations

from repro.simtime.clock import Clock


class WindowAccountant:
    """One-line forwards onto ``clock``'s event methods."""

    __slots__ = ("clock",)

    def __init__(self, clock: Clock) -> None:
        self.clock = clock

    def charge_query(self) -> None:
        self.clock.charge_query()

    def charge_binary(self, n: int) -> None:
        self.clock.charge_probes(n, 1)

    def charge_binary_pair(self, n: int) -> None:
        self.clock.charge_probes(n, 2)

    def charge_warm_select(self, n: int) -> None:
        self.clock.charge_warm_select(n)

    def charge_scan_query(self, scanned: int, materialized: int) -> None:
        self.clock.charge_scan(scanned, materialized)
        self.clock.charge_query()

    def charge_crack(self, size: int, cracks: int) -> None:
        self.clock.charge_crack(size, cracks)

    def charge_empty_crack(self) -> None:
        self.clock.charge_empty_crack()

    def charge_materialize(self, rows: int) -> None:
        self.clock.charge_materialize(rows)

    def charge_scan(self, scanned: int, materialized: int) -> None:
        self.clock.charge_scan(scanned, materialized)

    def charge_pending_merge(self, deletes: int, materialized: int) -> None:
        self.clock.charge_pending_merge(deletes, materialized)

    def finish(self) -> None:
        """Nothing to settle: every event already moved the clock."""
