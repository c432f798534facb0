"""Unit tests for piece descriptors."""

import math

from repro.cracking.piece import CrackOrigin, Piece


def test_piece_size_and_emptiness():
    assert Piece(10, 25).size == 15
    assert Piece(10, 10).size == 0


def test_unbounded_piece_contains_everything():
    piece = Piece(0, 10)
    assert piece.low == -math.inf
    assert piece.high == math.inf


def test_origin_enum_values():
    assert CrackOrigin.QUERY.value == "query"
    assert CrackOrigin.TUNING.value == "tuning"
    assert CrackOrigin.MERGE.value == "merge"
    assert CrackOrigin.SORT.value == "sort"


def test_repr_mentions_sortedness():
    assert "sorted" in repr(Piece(0, 10, is_sorted=True))
    assert "sorted" not in repr(Piece(0, 10))
