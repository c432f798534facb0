"""The database facade: catalog + clock + session factory.

This is the top-level entry point of the public API::

    from repro import Database

    db = Database()
    db.add_table(build_paper_table(rows=100_000))
    session = db.session(strategy="holistic")
    result = session.select("R", "A1", low=10, high=500_000)
    session.idle(seconds=0.5)          # kernel exploits the idle window
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.simtime.clock import Clock, SimClock
from repro.simtime.model import CostModel
from repro.storage.catalog import Catalog, ColumnRef
from repro.storage.column import Column
from repro.storage.table import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.session import Session


class Database:
    """A single-node, in-memory column-store instance.

    Args:
        clock: time source shared by every component; defaults to a
            fresh :class:`SimClock` with the paper-calibrated model.
            Planning estimates (:attr:`cost_model`) use a
            :class:`SimClock`'s model, else the paper-calibrated one.
    """

    def __init__(self, clock: Clock | None = None) -> None:
        self.catalog = Catalog()
        self.clock: Clock = clock if clock is not None else SimClock()
        self.cost_model = (
            self.clock.model
            if isinstance(self.clock, SimClock)
            else CostModel()
        )

    # -- schema shortcuts ----------------------------------------------

    def create_table(self, name: str) -> Table:
        """Create an empty table (see :meth:`Catalog.create_table`)."""
        return self.catalog.create_table(name)

    def add_table(self, table: Table) -> Table:
        """Register a prebuilt table."""
        return self.catalog.register_table(table)

    def table(self, name: str) -> Table:
        return self.catalog.table(name)

    def column(self, table: str, column: str) -> Column:
        return self.catalog.column(ColumnRef(table, column))

    # -- sessions --------------------------------------------------------

    def session(self, strategy: str = "holistic", **options: object) -> "Session":
        """Open a query session under the given indexing strategy.

        Args:
            strategy: one of ``scan``, ``offline``, ``online``,
                ``adaptive``, ``holistic``.
            options: strategy-specific settings forwarded to the
                strategy constructor (see
                :func:`repro.engine.session.make_strategy`).
        """
        from repro.engine.session import Session, make_strategy

        return Session(
            database=self,
            strategy=make_strategy(strategy, self, **options),
        )

    def __repr__(self) -> str:
        return f"Database(tables={[t.name for t in self.catalog]})"
