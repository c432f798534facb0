"""Adaptive indexing substrate: database cracking and its extensions.

Reproduces the MonetDB cracking module the paper builds on [12], plus
the cited extensions that define the adaptive-indexing design space:
stochastic cracking [10], update merging [11] and piece-level
concurrency control [7].
"""

from repro.cracking.concurrency import (
    LatchedCrackerAccess,
    PieceLatchTable,
    ReadWriteLatch,
)
from repro.cracking.engine import (
    CrackScratch,
    crack_in_three,
    crack_in_two,
    crack_in_two_batch,
    crack_multi,
    sort_piece,
    split_sorted_piece,
)
from repro.cracking.index import CrackerIndex
from repro.cracking.piece import CrackOrigin, Piece
from repro.cracking.piecemap import PieceMap
from repro.cracking.stochastic import StochasticCrackerIndex
from repro.cracking.tape import CrackTape
from repro.cracking.updates import (
    MaintainedCrackerIndex,
    merge_deletes,
    merge_inserts,
)

__all__ = [
    "CrackOrigin",
    "CrackScratch",
    "CrackTape",
    "CrackerIndex",
    "LatchedCrackerAccess",
    "MaintainedCrackerIndex",
    "Piece",
    "PieceLatchTable",
    "PieceMap",
    "ReadWriteLatch",
    "StochasticCrackerIndex",
    "crack_in_three",
    "crack_in_two",
    "crack_in_two_batch",
    "crack_multi",
    "merge_deletes",
    "merge_inserts",
    "sort_piece",
    "split_sorted_piece",
]
