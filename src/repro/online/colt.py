"""COLT-style online index tuning.

Reproduces the control loop of COLT (Schnaitter et al., SIGMOD 2006 --
the paper's [16]): the workload is monitored continuously; at every
epoch boundary the tuner re-evaluates candidate indexes with
optimizer-style estimates, builds the most promising one if its
amortized benefit over a planning horizon beats its build cost, and
drops indexes that have gone cold.

Builds happen *inline*, delaying in-flight queries -- the
online-indexing overhead the paper's Section 2 criticizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.offline.builder import IndexBuilder
from repro.offline.fullindex import FullIndex
from repro.offline.whatif import WhatIfOptimizer
from repro.online.monitor import WorkloadMonitor
from repro.storage.catalog import ColumnRef


@dataclass(slots=True)
class ColtConfig:
    """Tuning knobs of the online tuner.

    Attributes:
        horizon_queries: how many future queries an index is assumed to
            serve when amortizing its build cost (COLT's planning
            horizon).
        max_indexes: hard cap on concurrently materialized indexes
            (a storage budget stand-in).
        drop_after_epochs: drop an index untouched for this many
            epochs.
    """

    horizon_queries: int = 1_000
    max_indexes: int = 8
    drop_after_epochs: int = 10

    def __post_init__(self) -> None:
        if self.horizon_queries <= 0:
            raise ConfigError(
                f"horizon_queries must be positive: {self.horizon_queries}"
            )
        if self.max_indexes <= 0:
            raise ConfigError(
                f"max_indexes must be positive: {self.max_indexes}"
            )
        if self.drop_after_epochs <= 0:
            raise ConfigError(
                f"drop_after_epochs must be positive: "
                f"{self.drop_after_epochs}"
            )


@dataclass(slots=True)
class EpochDecision:
    """What the tuner decided at one epoch boundary."""

    epoch: int
    built: list[ColumnRef] = field(default_factory=list)
    dropped: list[ColumnRef] = field(default_factory=list)


class ColtTuner:
    """Epoch-driven online index selection."""

    def __init__(
        self,
        monitor: WorkloadMonitor,
        optimizer: WhatIfOptimizer,
        builder: IndexBuilder,
        config: ColtConfig | None = None,
    ) -> None:
        self.monitor = monitor
        self.optimizer = optimizer
        self.builder = builder
        self.config = config if config is not None else ColtConfig()
        self.decisions: list[EpochDecision] = []
        self._last_used_epoch: dict[ColumnRef, int] = {}
        self._dropped: set[ColumnRef] = set()
        self._last_eval_time = 0.0

    # -- index access ----------------------------------------------------

    def index_for(self, ref: ColumnRef) -> FullIndex | None:
        """A usable index on ``ref``, or None."""
        if ref in self._dropped:
            return None
        return self.builder.index_for(ref)

    def note_index_use(self, ref: ColumnRef) -> None:
        """Mark ``ref``'s index as used in the current epoch."""
        self._last_used_epoch[ref] = len(self.decisions)

    # -- the epoch loop ----------------------------------------------------

    def reevaluate(self, epoch: int, now: float) -> EpochDecision:
        """Run one COLT reevaluation; returns the decision record."""
        decision = EpochDecision(epoch=epoch)
        self._drop_cold_indexes(epoch, decision)
        # Decisions follow activity *within the closing epoch*, not
        # lifetime counts -- otherwise a just-dropped index would be
        # rebuilt from stale popularity forever.
        fresh_counts = self.monitor.epoch_counts(
            since=self._last_eval_time
        )
        self._last_eval_time = now
        candidate = self._best_candidate(fresh_counts)
        if candidate is not None:
            self.builder.build_now(candidate)
            self._dropped.discard(candidate)
            decision.built.append(candidate)
        self.decisions.append(decision)
        return decision

    def _built_count(self) -> int:
        return sum(
            1
            for ref, index in self.builder.indexes.items()
            if index.is_built and ref not in self._dropped
        )

    def _drop_cold_indexes(self, epoch: int, decision: EpochDecision) -> None:
        for ref, index in self.builder.indexes.items():
            if not index.is_built or ref in self._dropped:
                continue
            last_used = self._last_used_epoch.get(ref, 0)
            if epoch - last_used >= self.config.drop_after_epochs:
                self._dropped.add(ref)
                decision.dropped.append(ref)

    def _best_candidate(
        self, fresh_counts: dict[ColumnRef, int]
    ) -> ColumnRef | None:
        """The hottest un-indexed column whose index pays for itself."""
        if self._built_count() >= self.config.max_indexes:
            return None
        epoch_total = sum(fresh_counts.values())
        if epoch_total == 0:
            return None
        best_ref: ColumnRef | None = None
        best_gain = 0.0
        for ref, count in fresh_counts.items():
            if self.index_for(ref) is not None:
                continue
            rows = self.optimizer.catalog.column(ref).row_count
            per_query_gain = self.optimizer.model.scan_seconds(
                rows
            ) - self.optimizer.model.indexed_query_seconds(rows)
            expected_queries = (
                count / epoch_total
            ) * self.config.horizon_queries
            gain = per_query_gain * expected_queries
            gain -= self.optimizer.build_cost(ref)
            if gain > best_gain:
                best_gain = gain
                best_ref = ref
        return best_ref
