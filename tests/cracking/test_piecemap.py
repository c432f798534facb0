"""Unit tests for the piece map."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cracking.piecemap import PieceMap
from repro.errors import CrackerError


def _crack(pieces: PieceMap, pivot, position: int) -> None:
    """Record a crack as the index does: :meth:`PieceMap.locate` gives
    the insertion slot :meth:`PieceMap.add_crack_at` takes."""
    pieces.add_crack_at(pieces.locate(pivot)[0], pivot, position)


def test_fresh_map_is_one_piece():
    pieces = PieceMap(100)
    assert pieces.piece_count == 1
    assert pieces.crack_count == 0
    piece = pieces.piece_at_index(0)
    assert (piece.start, piece.end) == (0, 100)
    assert piece.low == -math.inf
    assert piece.high == math.inf


def test_add_crack_splits_piece():
    pieces = PieceMap(100)
    _crack(pieces, 50.0, 42)
    assert pieces.piece_count == 2
    left = pieces.piece_at_index(0)
    right = pieces.piece_at_index(1)
    assert (left.start, left.end) == (0, 42)
    assert (right.start, right.end) == (42, 100)
    assert left.high == 50.0
    assert right.low == 50.0


def test_cracks_keep_value_and_position_order():
    pieces = PieceMap(100)
    _crack(pieces, 50.0, 40)
    _crack(pieces, 25.0, 20)
    _crack(pieces, 75.0, 70)
    assert pieces.pivots() == [25.0, 50.0, 75.0]
    assert pieces.cuts() == [20, 40, 70]
    pieces.check_invariants()


def test_duplicate_pivot_rejected():
    pieces = PieceMap(10)
    _crack(pieces, 5.0, 4)
    with pytest.raises(CrackerError, match="out of order"):
        _crack(pieces, 5.0, 4)
    assert (pieces.pivots(), pieces.cuts()) == ([5.0], [4])


def test_out_of_piece_position_rejected():
    pieces = PieceMap(100)
    _crack(pieces, 50.0, 40)
    # pivot 60 belongs to the right piece [40, 100); position 10 is not.
    with pytest.raises(CrackerError, match="outside"):
        _crack(pieces, 60.0, 10)


def test_piece_for_value_navigation():
    pieces = PieceMap(100)
    _crack(pieces, 50.0, 40)
    assert pieces.piece_for_value(10.0).start == 0
    assert pieces.piece_for_value(50.0).start == 40
    assert pieces.piece_for_value(99.0).start == 40


def test_has_pivot_and_position_of_pivot():
    pieces = PieceMap(100)
    _crack(pieces, 50.0, 40)
    assert pieces.has_pivot(50.0)
    assert not pieces.has_pivot(49.0)
    assert pieces.locate(50.0)[1] == 40


def test_piece_sizes_and_aggregates():
    pieces = PieceMap(100)
    _crack(pieces, 50.0, 40)
    _crack(pieces, 75.0, 70)
    assert [p.size for p in pieces.pieces()] == [40, 30, 30]
    assert pieces.average_piece_size() == pytest.approx(100 / 3)


def test_largest_piece_is_the_first_biggest():
    pieces = PieceMap(100)
    _crack(pieces, 30.0, 30)
    _crack(pieces, 60.0, 70)
    assert pieces.largest_piece().start == 30  # 40 rows
    _crack(pieces, 45.0, 50)
    piece = pieces.largest_piece()  # 30 rows at 0 and at 70
    assert (piece.start, piece.size) == (0, 30)


def test_apply_deltas_shifts_cuts():
    pieces = PieceMap(100)
    _crack(pieces, 50.0, 40)
    _crack(pieces, 75.0, 70)
    pieces.apply_deltas([5, 0, -3])
    assert pieces.cuts() == [45, 75]
    assert pieces.row_count == 102
    pieces.check_invariants()


def test_apply_deltas_validates_length_and_sizes():
    pieces = PieceMap(100)
    _crack(pieces, 50.0, 40)
    with pytest.raises(CrackerError, match="deltas"):
        pieces.apply_deltas([1])
    with pytest.raises(CrackerError, match="below zero"):
        pieces.apply_deltas([-41, 0])


def test_empty_pieces_are_allowed():
    pieces = PieceMap(100)
    _crack(pieces, 50.0, 40)
    _crack(pieces, 55.0, 40)  # empty piece [40, 40)
    assert [p.size for p in pieces.pieces()] == [40, 0, 60]
    pieces.check_invariants()


def test_negative_row_count_rejected():
    with pytest.raises(CrackerError):
        PieceMap(-1)


def test_empty_map_handles_queries():
    pieces = PieceMap(0)
    assert pieces.piece_count == 1
    assert [p.size for p in pieces.pieces()] == [0]
    assert pieces.average_piece_size() == 0.0


# -- locate_pair == (locate(low), locate(high)) --------------------------

_PIVOT_POOL = [
    -1e300,
    -(2.0**63),
    -float(2**53 + 2),
    -1.5,
    -0.0,
    0.5,
    1.0,
    float(np.nextafter(1.0, 2.0)),
    1e7,
    2.0**53,
    float(2**53 + 2),
    2.0**63,
    1e300,
]


@st.composite
def _maps_and_bounds(draw):
    pivots = sorted(draw(st.sets(st.sampled_from(_PIVOT_POOL))))
    n = draw(st.integers(0, 50))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(0, n),
                min_size=len(pivots),
                max_size=len(pivots),
            )
        )
    )
    pieces = PieceMap.from_state(
        n,
        np.array(pivots, dtype=np.float64),
        np.array(cuts, dtype=np.int64),
    )
    between = [
        (a + b) / 2 for a, b in zip(pivots, pivots[1:]) if a < (a + b) / 2 < b
    ]
    # Python ints too: one beyond 2^53 is searched as the float it
    # rounds to and must report ``at_pivot`` for that float.
    bound = st.sampled_from(
        _PIVOT_POOL + between + [-math.inf, math.inf, 2**53 + 1, 7]
    )
    low = draw(bound)
    high = draw(st.one_of(st.just(low), bound))
    return pieces, low, high


@settings(max_examples=300, deadline=None)
@given(_maps_and_bounds())
def test_locate_pair_is_two_locates(case):
    pieces, low, high = case
    pair = pieces.locate_pair(low, high)
    assert pair == (pieces.locate(low), pieces.locate(high))
    for located in pair:
        assert [type(field) for field in located] == [int, int, int, bool]


def test_nan_is_never_a_pivot():
    """NaN compares false with everything, so ``any(a >= b)`` let it
    through every ordering check and ``check_invariants`` passed."""
    empty, cut = PieceMap(100), PieceMap(100)
    _crack(cut, 50.0, 40)
    for pieces in (empty, cut):
        before = (pieces.pivots(), pieces.cuts())
        with pytest.raises(CrackerError, match="out of order"):
            pieces.add_crack_at(pieces.crack_count, math.nan, 60)
        with pytest.raises(CrackerError, match="pivot ordering"):
            pieces.insert_cracks_bulk(
                np.array([math.nan]), np.array([60])
            )
        assert (pieces.pivots(), pieces.cuts()) == before
        pieces.check_invariants()
    for pivots, cuts in (([math.nan], [60]), ([50.0, math.nan], [40, 60])):
        with pytest.raises(CrackerError, match="strictly increasing"):
            PieceMap.from_state(100, np.array(pivots), np.array(cuts))


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.float64])
def test_sequential_cracks_shift_pivots_of_every_width(dtype):
    """Regression: the insert's tail shift moved 8 bytes an element,
    so an int32 map's pivots came apart (and a map more than half
    full wrote past its pivot buffer).  Cracks inserted front to back
    grow the map past two reallocations."""
    pieces = PieceMap(1_000, dtype=np.dtype(dtype))
    for step, pivot in enumerate(range(900, 0, -20)):
        pieces.add_crack_at(0, pivot, pivot)
        pieces.check_invariants()
        assert pieces.pivots() == list(range(pivot, 901, 20))
        assert pieces.cuts() == pieces.pivots()
        assert pieces.crack_count == step + 1
    for pivot in range(910, 1_000, 20):
        _crack(pieces, pivot, pivot)
    _crack(pieces, 15, 15)
    pieces.check_invariants()
    assert pieces.pivots() == [15, *range(20, 901, 20), *range(910, 1_000, 20)]
    assert pieces.cuts() == pieces.pivots()


@pytest.mark.parametrize(
    "dtype, pivot",
    [
        (np.int32, 2**31),
        (np.int32, -(2**31) - 1),
        (np.int32, math.nan),
        (np.int32, math.inf),
        (np.int32, 7.5),
        (np.int64, 2**63),
        (np.int64, math.nan),
        (np.int64, -math.inf),
        (np.int64, float(2**63)),
        (np.float64, math.nan),
        pytest.param(np.float64, 2**1100, id="float64-2**1100"),
        (np.float64, 2**53 + 1),
    ],
)
def test_a_pivot_outside_the_dtype_is_a_cracker_error(dtype, pivot):
    """Regression: an integer map raised ``OverflowError`` for a pivot
    past its dtype's range and ``ValueError`` for NaN, where
    ``add_crack_at`` documents ``CrackerError``."""
    pieces = PieceMap(100, dtype=np.dtype(dtype))
    _crack(pieces, 5, 40)
    before = (pieces.pivots(), pieces.cuts(), dict(pieces.cut_of))
    version = pieces.version
    with pytest.raises(CrackerError, match="out of order"):
        pieces.add_crack_at(pieces.crack_count, pivot, 60)
    assert (pieces.pivots(), pieces.cuts(), dict(pieces.cut_of)) == before
    assert pieces.version == version
    pieces.check_invariants()


@pytest.mark.parametrize(
    "dtype, pivot",
    [(np.int32, 2**31 - 1), (np.int64, 2**63 - 1), (np.int64, 2**53 + 1)],
)
def test_the_largest_integer_of_a_dtype_is_a_pivot(dtype, pivot):
    pieces = PieceMap(100, dtype=np.dtype(dtype))
    _crack(pieces, pivot, 60)
    assert pieces.pivots() == [pivot]
    assert type(pieces.pivots()[0]) is int
