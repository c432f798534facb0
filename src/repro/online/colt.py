"""COLT-style online index tuning.

Reproduces the control loop of COLT (Schnaitter et al., SIGMOD 2006 --
the paper's [16]): the workload is monitored continuously; every
:data:`EPOCH_QUERIES` queries the tuner re-evaluates candidate indexes
with optimizer-style estimates, builds the most promising one if its
amortized benefit over a planning horizon beats its build cost, and
drops indexes that have gone cold.

Builds happen *inline*, delaying in-flight queries -- the
online-indexing overhead the paper's Section 2 criticizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.offline.builder import IndexBuilder
from repro.offline.fullindex import FullIndex
from repro.offline.whatif import WhatIfOptimizer
from repro.online.monitor import WorkloadMonitor
from repro.storage.catalog import ColumnRef

#: Queries per epoch: the reevaluation cadence.
EPOCH_QUERIES = 100
#: Future queries an index is assumed to serve when amortizing its
#: build cost (COLT's planning horizon).
HORIZON_QUERIES = 1_000
#: Cap on concurrently materialized indexes (a storage budget
#: stand-in).
MAX_INDEXES = 8
#: An index untouched for this many epochs is dropped.
DROP_AFTER_EPOCHS = 10


@dataclass(slots=True)
class EpochDecision:
    """What the tuner decided at one epoch boundary, and the closing
    epoch's per-column query counts it decided on."""

    epoch: int
    counts: dict[ColumnRef, int] = field(default_factory=dict)
    built: list[ColumnRef] = field(default_factory=list)
    dropped: list[ColumnRef] = field(default_factory=list)


class ColtTuner:
    """Epoch-driven online index selection."""

    def __init__(
        self,
        monitor: WorkloadMonitor,
        optimizer: WhatIfOptimizer,
        builder: IndexBuilder,
    ) -> None:
        self.monitor = monitor
        self.optimizer = optimizer
        self.builder = builder
        self.queries_seen = 0
        #: Reevaluations run so far.
        self.decisions = 0
        self._last_used_epoch: dict[ColumnRef, int] = {}
        self._dropped: set[ColumnRef] = set()
        #: The monitor's per-column counts at the last reevaluation.
        self._counts_seen: dict[ColumnRef, int] = {}

    # -- index access ----------------------------------------------------

    def index_for(self, ref: ColumnRef) -> FullIndex | None:
        """A usable index on ``ref``, or None."""
        if ref in self._dropped:
            return None
        return self.builder.index_for(ref)

    def note_index_use(self, ref: ColumnRef) -> None:
        """Mark ``ref``'s index as used in the current epoch."""
        self._last_used_epoch[ref] = self.decisions

    # -- the epoch loop ----------------------------------------------------

    def observe_query(self) -> None:
        """Count one query; every :data:`EPOCH_QUERIES`-th closes an
        epoch and reevaluates, inside that query's window."""
        self.queries_seen += 1
        if self.queries_seen % EPOCH_QUERIES == 0:
            self.reevaluate(self.queries_seen // EPOCH_QUERIES)

    def reevaluate(self, epoch: int) -> EpochDecision:
        """Run one COLT reevaluation; returns the decision record."""
        # Decisions follow activity *within the closing epoch*, not
        # lifetime counts -- otherwise a just-dropped index would be
        # rebuilt from stale popularity forever.
        seen = self._counts_seen
        counts = self.monitor.query_counts
        decision = EpochDecision(
            epoch=epoch,
            counts={
                ref: count - seen.get(ref, 0)
                for ref, count in counts.items()
                if count > seen.get(ref, 0)
            },
        )
        self._counts_seen = dict(counts)
        self._drop_cold_indexes(epoch, decision)
        candidate = self._best_candidate(decision.counts)
        if candidate is not None:
            self.builder.build_now(candidate)
            self._dropped.discard(candidate)
            decision.built.append(candidate)
        self.decisions += 1
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
            if epoch - last_used >= DROP_AFTER_EPOCHS:
                self._dropped.add(ref)
                decision.dropped.append(ref)

    def _best_candidate(
        self, fresh_counts: dict[ColumnRef, int]
    ) -> ColumnRef | None:
        """The hottest un-indexed column whose index pays for itself."""
        if self._built_count() >= MAX_INDEXES:
            return None
        epoch_total = sum(fresh_counts.values())
        if epoch_total == 0:
            return None
        best_ref: ColumnRef | None = None
        best_gain = 0.0
        for ref, count in fresh_counts.items():
            if self.index_for(ref) is not None:
                continue
            expected_queries = (count / epoch_total) * HORIZON_QUERIES
            gain = self.optimizer.query_gain(ref) * expected_queries
            gain -= self.optimizer.build_cost(ref)
            if gain > best_gain:
                best_gain = gain
                best_ref = ref
        return best_ref
