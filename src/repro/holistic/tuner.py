"""Auxiliary tuning actions: the unit of idle-time refinement.

The paper's proof-of-concept uses *random cracking actions*; the
research-space discussion also suggests data-driven variants.
:meth:`AuxiliaryTuner.perform` runs exactly one action per call so the
serial scheduler can check the idle budget between actions;
:meth:`AuxiliaryTuner.perform_batch` and
:meth:`AuxiliaryTuner.perform_latched` apply many in one pass (the
paper's "multiple tuning actions in one go").
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

import numpy as np

from repro.cracking.index import CrackerIndex
from repro.cracking.piece import CrackOrigin
from repro.errors import ConfigError
from repro.storage.dtypes import Key, normalise_bound


class ActionKind(Enum):
    """Available auxiliary refinement actions."""

    RANDOM_CRACK = "random_crack"
    CRACK_LARGEST = "crack_largest"
    SORT_SMALLEST_UNSORTED = "sort_smallest_unsorted"


def random_pivots(
    rng: np.random.Generator, index: CrackerIndex, count: int
) -> list[Key]:
    """``count`` uniform random pivots over ``index``'s value range,
    normalised into the column's domain.

    Empty when the column has no rows or no value span (nothing a
    random crack could split).
    """
    if count <= 0 or index.row_count == 0:
        return []
    stats = index.column.stats
    if stats.value_span <= 0:
        return []
    dtype = index.piece_map.dtype
    return [
        normalise_bound(dtype, value)
        for value in rng.uniform(
            stats.min_value, stats.max_value, size=count
        ).tolist()
    ]


class AuxiliaryTuner:
    """Performs refinement actions on cracker indexes.

    Args:
        kind: the default action type.
        seed: seed for the tuner's random generator.
        min_piece_size: pieces at/below this size are left alone
            (the cache-fit stopping criterion, in rows).
    """

    def __init__(
        self,
        kind: ActionKind = ActionKind.RANDOM_CRACK,
        seed: int | None = None,
        min_piece_size: int = 2,
    ) -> None:
        if min_piece_size < 1:
            raise ConfigError(
                f"min_piece_size must be >= 1: {min_piece_size}"
            )
        self.kind = kind
        self.rng = np.random.default_rng(seed)
        self.min_piece_size = min_piece_size
        self.actions_performed = 0
        self.actions_degenerate = 0

    def perform(
        self, index: CrackerIndex, kind: ActionKind | None = None
    ) -> bool:
        """Run one action on ``index``; True if it refined anything."""
        kind = kind if kind is not None else self.kind
        if kind is ActionKind.RANDOM_CRACK:
            outcome = index.random_crack(
                self.rng,
                origin=CrackOrigin.TUNING,
                min_piece_size=self.min_piece_size,
            )
            success = outcome is not None
        elif kind is ActionKind.CRACK_LARGEST:
            outcome = index.crack_largest_piece(
                self.rng,
                origin=CrackOrigin.TUNING,
                min_piece_size=self.min_piece_size,
            )
            success = outcome is not None
        elif kind is ActionKind.SORT_SMALLEST_UNSORTED:
            success = self._sort_smallest_unsorted(index)
        else:  # pragma: no cover - exhaustive enum
            raise ConfigError(f"unknown action kind: {kind}")
        if success:
            self.actions_performed += 1
        else:
            self.actions_degenerate += 1
        return success

    def perform_latched(
        self,
        access,
        count: int = 1,
        pivots: Sequence[Key] | None = None,
        kind: ActionKind | None = None,
    ) -> int:
        """Run ``count`` actions through a latched access facade.

        The worker-thread counterpart of :meth:`perform`, for one batch
        of a window plan; returns how many actions refined anything.
        Random cracks take their ``pivots`` from the plan (drawn from
        this tuner's generator when not given) and apply them as one
        multi-pivot pass that latches only the target pieces
        (:meth:`LatchedCrackerAccess.crack_value`); data-driven kinds
        scan the whole piece map, so they loop under the table-level
        latch.  Counters update exactly as in the serial path.
        """
        kind = kind if kind is not None else self.kind
        if kind is ActionKind.RANDOM_CRACK:
            if pivots is None:
                pivots = random_pivots(self.rng, access.index, count)
            effective = access.crack_value(
                pivots, min_piece_size=self.min_piece_size
            )
            self.actions_performed += effective
            self.actions_degenerate += count - effective
            return effective
        with access.exclusive() as stalled:
            if stalled:
                access.index.tape.note_stall()
            return sum(
                self.perform(access.index, kind) for _ in range(count)
            )

    def perform_batch(self, index: CrackerIndex, count: int) -> int:
        """Apply ``count`` random cracks to ``index`` in one go.

        Draws ``count`` random pivot values and hands them to
        :meth:`CrackerIndex.ensure_cuts`, which partitions each
        touched piece once regardless of how many pivots land in it --
        the paper's "multiple tuning actions in one go".  Returns how
        many pivots were genuinely new.
        """
        values = random_pivots(self.rng, index, count)
        if not values:
            return 0
        before = index.crack_count
        index.ensure_cuts(values, CrackOrigin.TUNING)
        effective = index.crack_count - before
        self.actions_performed += effective
        self.actions_degenerate += count - effective
        return effective

    def crack_in_hot_range(
        self,
        index: CrackerIndex,
        low: float,
        high: float,
        access=None,
    ) -> bool:
        """One random crack confined to a hot value range.

        Implements the paper's "no idle time" boost: when a column and
        value range are hot, extra cracks are injected there during
        query processing.  With ``access`` (a
        :class:`~repro.cracking.concurrency.LatchedCrackerAccess`)
        the crack goes through piece latches, for kernels whose tuning
        workers are racing the foreground.
        """
        if high <= low:
            return False
        value = normalise_bound(
            index.piece_map.dtype, self.rng.uniform(low, high)
        )
        if access is not None:
            success = access.crack_value(
                value, min_piece_size=self.min_piece_size
            )
            if success:
                self.actions_performed += 1
            else:
                self.actions_degenerate += 1
            return success
        if index.piece_map.has_pivot(value):
            self.actions_degenerate += 1
            return False
        piece = index.piece_map.piece_for_value(value)
        if piece.size <= self.min_piece_size:
            self.actions_degenerate += 1
            return False
        index.ensure_cut(value, CrackOrigin.TUNING)
        self.actions_performed += 1
        return True

    def _sort_smallest_unsorted(self, index: CrackerIndex) -> bool:
        """Finish off the smallest unsorted piece by sorting it."""
        best_index = index.piece_map.smallest_unsorted_index(min_size=2)
        if best_index is None:
            return False
        index.sort_piece_at(best_index)
        return True
