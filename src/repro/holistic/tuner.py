"""Auxiliary tuning actions: the unit of idle-time refinement.

The paper's proof-of-concept uses *random cracking actions*, and so
does this kernel: an action is one crack at a uniform random pivot.
:meth:`AuxiliaryTuner.perform` runs exactly one action per call so the
serial scheduler can check the idle budget between actions;
:meth:`AuxiliaryTuner.perform_batch` and
:meth:`AuxiliaryTuner.perform_latched` apply many in one pass (the
paper's "multiple tuning actions in one go").
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cracking.index import CrackerIndex, CrackPass
from repro.cracking.piece import CrackOrigin
from repro.errors import ConfigError
from repro.storage.dtypes import Key, normalise_bound


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
    """Performs random-crack refinement actions on cracker indexes.

    Args:
        seed: seed for the tuner's random generator.
        min_piece_size: pieces at/below this size are left alone
            (the cache-fit stopping criterion, in rows).
    """

    def __init__(
        self,
        seed: int | None = None,
        min_piece_size: int = 2,
    ) -> None:
        if min_piece_size < 1:
            raise ConfigError(
                f"min_piece_size must be >= 1: {min_piece_size}"
            )
        self.rng = np.random.default_rng(seed)
        self.min_piece_size = min_piece_size

    def perform(self, index: CrackerIndex) -> bool:
        """Run one action on ``index``; True if it refined anything."""
        return index.random_crack(
            self.rng, min_piece_size=self.min_piece_size
        ) is not None

    def perform_latched(self, access, pivots: Sequence[Key]) -> CrackPass:
        """Apply one planned batch through a worker's access facade.

        The worker-thread counterpart of :meth:`perform`: the plan's
        ``pivots`` are applied as one multi-pivot pass under the
        index's lock (:meth:`LatchedCrackerAccess.crack_value`).
        Returns the pass's unpriced record; its ``fresh`` values are
        the pivots that refined anything.  Stateless, so every worker
        thread shares the kernel's tuner.
        """
        return access.crack_value(pivots, min_piece_size=self.min_piece_size)

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
        index.ensure_cuts(values)
        return index.crack_count - before

    def crack_in_hot_range(
        self,
        index: CrackerIndex,
        low: float,
        high: float,
    ) -> bool:
        """One random crack confined to the value range ``[low, high)``.

        It was the paper's "no idle time" boost, which measured worse
        than plain adaptive cracking and was removed; nothing in
        ``src/`` calls it, and it stays only because
        ``perfbench/layers.py`` names it.
        """
        if high <= low:
            return False
        value = normalise_bound(
            index.piece_map.dtype, self.rng.uniform(low, high)
        )
        if index.piece_map.has_pivot(value):
            return False
        piece = index.piece_map.piece_for_value(value)
        if piece.size <= self.min_piece_size:
            return False
        index.ensure_cut(value, CrackOrigin.TUNING)
        return True
