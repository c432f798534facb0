"""Epochs: the reevaluation cadence of online tuning.

COLT [16] reconsiders the physical design every N queries.  The epoch
manager counts observed queries and fires registered callbacks when an
epoch boundary is crossed.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigError

EpochCallback = Callable[[int], None]


class EpochManager:
    """Fires callbacks every ``epoch_queries`` observed queries."""

    def __init__(self, epoch_queries: int = 100) -> None:
        if epoch_queries <= 0:
            raise ConfigError(
                f"epoch_queries must be positive: {epoch_queries}"
            )
        self.epoch_queries = epoch_queries
        self.queries_seen = 0
        self.epochs_completed = 0
        self._callbacks: list[EpochCallback] = []

    def on_epoch(self, callback: EpochCallback) -> None:
        """Register a callback ``(epoch_index) -> None``."""
        self._callbacks.append(callback)

    def observe_query(self) -> bool:
        """Count one query; returns True if an epoch just completed."""
        self.queries_seen += 1
        if self.queries_seen % self.epoch_queries != 0:
            return False
        self.epochs_completed += 1
        for callback in self._callbacks:
            callback(self.epochs_completed)
        return True

    def __repr__(self) -> str:
        return (
            f"EpochManager(every={self.epoch_queries}, "
            f"seen={self.queries_seen}, epochs={self.epochs_completed})"
        )
