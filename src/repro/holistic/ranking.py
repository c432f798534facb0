"""The continuous ranking scheme of holistic indexing.

Paper §3 ("Modeling"): *"if we detect a couple of idle milliseconds,
on which column should we apply a random crack action?"*.  The answer
combines two continuously-maintained signals:

* how far each cracker index is from its optimum -- once pieces fit in
  the CPU cache, extra refinement stops paying off, so the distance is
  a function of the average piece size vs. the cache target;
* how relevant the column is to the workload -- its observed query
  frequency (with a bootstrap weight so never-queried columns still
  rank when knowledge says they matter).

The ranking is updated in O(1) per query and per crack; reading the
best column is one scalar pass over the columns, which is tiny next to
any crack action.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cracking.index import CrackerIndex
from repro.errors import ConfigError
from repro.storage.catalog import ColumnRef


@dataclass(slots=True)
class ColumnTuningState:
    """Everything the ranking knows about one candidate column."""

    ref: ColumnRef
    index: CrackerIndex
    queries_seen: int = 0
    tuning_actions: int = 0
    workload_weight: float = 1.0
    #: Cracks a worker-pool window plan has promised this column and
    #: not applied yet.  Each counts as one more piece, so the policy
    #: plans a whole window against the *projected* ranking; released
    #: when the batch completes.  Always zero on the serial path.
    planned: int = 0

    def average_piece_size(self) -> float:
        pieces = self.index.piece_map
        return pieces.row_count / (pieces.piece_count + self.planned)


class ColumnRanking:
    """Orders candidate columns by expected benefit of one more crack.

    Args:
        cache_target_elements: piece size (rows) below which further
            refinement is considered useless (the cache-fit criterion).
    """

    def __init__(self, cache_target_elements: int) -> None:
        if cache_target_elements < 1:
            raise ConfigError(
                "cache_target_elements must be >= 1, got "
                f"{cache_target_elements}"
            )
        self.cache_target_elements = cache_target_elements
        self._states: dict[ColumnRef, ColumnTuningState] = {}

    # -- registration ----------------------------------------------------

    def register(
        self,
        ref: ColumnRef,
        index: CrackerIndex,
        workload_weight: float = 1.0,
    ) -> ColumnTuningState:
        """Track ``ref``; idempotent (weight updates on re-register)."""
        state = self._states.get(ref)
        if state is None:
            state = ColumnTuningState(
                ref=ref, index=index, workload_weight=workload_weight
            )
            self._states[ref] = state
        else:
            state.workload_weight = workload_weight
        return state

    def state(self, ref: ColumnRef) -> ColumnTuningState | None:
        return self._states.get(ref)

    def states(self) -> list[ColumnTuningState]:
        return list(self._states.values())

    def __contains__(self, ref: ColumnRef) -> bool:
        return ref in self._states

    def __len__(self) -> int:
        return len(self._states)

    # -- signal updates ----------------------------------------------------

    def note_query(self, ref: ColumnRef) -> None:
        state = self._states.get(ref)
        if state is not None:
            state.queries_seen += 1

    def note_queries(self, ref: ColumnRef, count: int) -> None:
        """Record ``count`` queries on ``ref`` in one step.

        The batched form of :meth:`note_query` used by windowed
        execution: one bookkeeping update per column per window.
        """
        state = self._states.get(ref)
        if state is not None:
            state.queries_seen += count

    def note_tuning_action(self, ref: ColumnRef, count: int = 1) -> None:
        state = self._states.get(ref)
        if state is not None:
            state.tuning_actions += count

    # -- ranking -----------------------------------------------------------

    def is_refined(self, state: ColumnTuningState) -> bool:
        """Whether the column has reached the cache-fit optimum."""
        return state.average_piece_size() <= self.cache_target_elements

    def score(self, state: ColumnTuningState) -> float:
        """Expected-benefit score; 0 when already cache-refined.

        ``(queries + weight) * avg_piece_size``: hot and coarsely
        partitioned columns first.  The piece-size factor makes the
        score decay automatically as a column is refined, so tuning
        resources spread without explicit round-robin bookkeeping.
        """
        avg = state.average_piece_size()
        if avg <= self.cache_target_elements:
            return 0.0
        frequency_weight = state.queries_seen + state.workload_weight
        return frequency_weight * avg

    def ranked(self) -> list[tuple[ColumnTuningState, float]]:
        """All candidates with positive score, best first.

        The full ranking is what ``weighted_random`` samples from and
        what reports print; an idle decision that only needs its head
        calls :meth:`best`.  The sort is stable, so ties keep
        registration order.
        """
        scored = [
            (state, score)
            for state in self._states.values()
            if (score := self.score(state)) > 0
        ]
        scored.sort(key=lambda pair: pair[1], reverse=True)
        return scored

    def best(self) -> ColumnTuningState | None:
        """The most deserving column, or None when all are refined.

        A scalar maximum over :meth:`score` -- the head of
        :meth:`ranked` without building and sorting the ranking.  The
        strict ``>`` keeps registration order among ties, like the
        stable sort there.
        """
        best, best_score = None, 0.0
        for state in self._states.values():
            score = self.score(state)
            if score > best_score:
                best, best_score = state, score
        return best

    def unrefined_states(self) -> list[ColumnTuningState]:
        """Candidates still short of the cache-fit optimum, in
        registration order."""
        return [
            state
            for state in self._states.values()
            if not self.is_refined(state)
        ]

    def refined_count(self) -> int:
        """How many candidates reached the cache-fit optimum."""
        return sum(1 for s in self._states.values() if self.is_refined(s))

    # -- persistence -------------------------------------------------------

    def export_state(self) -> dict:
        """Per-column counters and weights (snapshot serialization).

        Index objects are not serialized here -- the snapshot layer
        restores them separately and re-registers, then folds these
        counters back in with :meth:`restore_state`.
        """
        return {
            "columns": [
                {
                    "table": state.ref.table,
                    "column": state.ref.column,
                    "queries_seen": state.queries_seen,
                    "tuning_actions": state.tuning_actions,
                    "workload_weight": state.workload_weight,
                }
                for state in self._states.values()
            ]
        }

    def restore_state(self, state: dict) -> None:
        """Fold exported counters into already-registered candidates.

        Columns in the snapshot that are not registered yet are
        skipped -- registration is driven by the restored index set,
        which is the authoritative candidate list.
        """
        for entry in state["columns"]:
            ref = ColumnRef(entry["table"], entry["column"])
            tracked = self._states.get(ref)
            if tracked is None:
                continue
            tracked.queries_seen = int(entry["queries_seen"])
            tracked.tuning_actions = int(entry["tuning_actions"])
            tracked.workload_weight = float(entry["workload_weight"])
