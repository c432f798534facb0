"""Piece descriptors for cracked columns.

A cracked column is range-partitioned into contiguous *pieces*: the
elements of piece ``[start, end)`` all fall in the value interval
``[low, high)`` recorded for that piece (with open infinities at the
extremes).  Pieces shrink monotonically as cracks accumulate -- the
core progress measure of adaptive indexing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class CrackOrigin(Enum):
    """Why a crack (or other refinement) happened.

    The distinction matters to the paper: QUERY cracks are adaptive
    indexing's only source of refinement, while TUNING cracks are the
    auxiliary actions holistic indexing injects during idle time.
    """

    QUERY = "query"
    TUNING = "tuning"
    MERGE = "merge"
    SORT = "sort"

    # Singletons: their identity hash keys the tape's counts frame-free.
    __hash__ = object.__hash__


@dataclass(frozen=True, slots=True)
class Piece:
    """One piece of a cracked column.

    Attributes:
        start: first position of the piece (inclusive).
        end: one past the last position (exclusive).
        low: smallest value the piece may contain (inclusive);
            ``-inf`` for the leftmost piece.
        high: upper bound on values (exclusive); ``+inf`` for the
            rightmost piece.
    """

    start: int
    end: int
    low: float = -math.inf
    high: float = math.inf

    @property
    def size(self) -> int:
        return self.end - self.start

    def __repr__(self) -> str:
        return (
            f"Piece([{self.start}, {self.end}), "
            f"values=[{self.low}, {self.high}))"
        )
