"""Stochastic cracking: robustness against unfavourable workloads.

Plain cracking refines only at query bounds, so sequential workloads
(e.g. a range sweep) degrade to repeated near-full-column cracks.
Stochastic cracking (Halim et al., PVLDB 2012, the paper's [10]) fixes
this by injecting data- or random-driven cracks during the select
itself.  Three published variants are implemented:

* ``DDC`` -- recursively crack the touched piece at the *center* of its
  value range until it is small, then crack at the query bound;
* ``DDR`` -- like DDC but each recursion pivots on a *random* value
  inside the piece's range;
* ``MDD1R`` -- do not crack at the query bounds at all: each touched
  piece receives exactly one random crack, and the result is built by
  filtering (materializing) the touched pieces.

All variants share :class:`CrackerIndex` machinery so their refinement
actions land on the same tape/clock as everything else.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cracking.index import CrackerIndex
from repro.cracking.piece import CrackOrigin, Piece
from repro.errors import ConfigError
from repro.simtime.charge import CostCharge
from repro.storage.dtypes import Key
from repro.storage.views import MaterializedResult, SelectionResult

_VARIANTS = ("ddc", "ddr", "mdd1r")


class StochasticCrackerIndex(CrackerIndex):
    """A cracker index with stochastic select-time refinement.

    Args:
        variant: ``ddc``, ``ddr`` or ``mdd1r`` (case-insensitive).
        stop_piece_size: recursion stops once pieces are at most this
            many rows (the published variants use the L1/L2 cache size).
        seed: seed for the variant's private random generator.
        **kwargs: forwarded to :class:`CrackerIndex`.
    """

    def __init__(
        self,
        column,
        variant: str = "ddr",
        stop_piece_size: int = 16_384,
        seed: int | None = None,
        **kwargs,
    ) -> None:
        variant = variant.lower()
        if variant not in _VARIANTS:
            raise ConfigError(
                f"unknown stochastic variant {variant!r}; "
                f"supported: {', '.join(_VARIANTS)}"
            )
        if stop_piece_size < 2:
            raise ConfigError(
                f"stop_piece_size must be >= 2, got {stop_piece_size}"
            )
        super().__init__(column, **kwargs)
        self.variant = variant
        self.stop_piece_size = stop_piece_size
        self._rng = np.random.default_rng(seed)

    # -- helpers ---------------------------------------------------------

    def _clamped_bounds(self, piece: Piece) -> tuple[Key, Key]:
        """Piece value bounds with infinities clamped to column stats."""
        stats = self.column.stats
        low = piece.low if piece.low != -math.inf else stats.min_value
        high = piece.high if piece.high != math.inf else stats.max_value
        return low, high

    def _shrink_piece_around(self, value: Key) -> None:
        """Recursively crack the piece containing ``value`` until small."""
        guard = 0
        while guard < 64:
            guard += 1
            piece = self.piece_map.piece_for_value(value)
            if piece.size <= self.stop_piece_size:
                return
            low, high = self._clamped_bounds(piece)
            if high <= low:
                return
            pivot = self._pivot_key(
                (low + high) / 2.0
                if self.variant == "ddc"
                else self._rng.uniform(low, high)
            )
            if self.piece_map.has_pivot(pivot) or not (low < pivot < high):
                return
            self.ensure_cut(pivot, CrackOrigin.TUNING)

    # -- select ----------------------------------------------------------

    def select_keys(
        self,
        low: Key,
        high: Key,
        origin: CrackOrigin = CrackOrigin.QUERY,
    ) -> SelectionResult:
        """Stochastic select; semantics match the plain index."""
        if self.variant == "mdd1r":
            return self._select_mdd1r(low, high)
        self._shrink_piece_around(low)
        self._shrink_piece_around(high)
        return super().select_keys(low, high, origin)

    def _select_mdd1r(self, low: Key, high: Key) -> SelectionResult:
        """MDD1R: one random crack per touched piece, filtered result."""
        first = self.piece_map.piece_index_for_value(low)
        last = self.piece_map.piece_index_for_value(high)
        chunks: list[np.ndarray] = []
        scanned = 0
        for index in range(first, last + 1):
            piece = self.piece_map.piece_at_index(index)
            if piece.size == 0:
                continue
            chunk = self._array[piece.start : piece.end]
            mask = (chunk >= low) & (chunk < high)
            chunks.append(chunk[mask])
            scanned += piece.size
        result = (
            np.concatenate(chunks)
            if chunks
            else np.empty(0, dtype=self._array.dtype)
        )
        self.clock.charge(
            CostCharge(
                elements_scanned=scanned,
                elements_materialized=len(result),
                pieces_touched=max(0, last - first + 1),
            )
        )
        # One random refinement per touched *large* piece keeps future
        # selects cheap without paying full query-bound cracks now.
        for index in (first, last):
            piece = self.piece_map.piece_at_index(
                min(index, self.piece_count - 1)
            )
            if piece.size > self.stop_piece_size:
                piece_low, piece_high = self._clamped_bounds(piece)
                if piece_high > piece_low:
                    pivot = self._pivot_key(
                        self._rng.uniform(piece_low, piece_high)
                    )
                    if not self.piece_map.has_pivot(pivot):
                        self.ensure_cut(pivot, CrackOrigin.TUNING)
        return MaterializedResult(result)
