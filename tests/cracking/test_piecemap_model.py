"""The piece map against a sorted-dict model.

The model is a dict from pivot to cut position and a row count; every
piece-map operation is applied to both, and after each one the map's
pivots and cuts must be the model's, as exact Python scalars -- an
int64 pivot beyond 2^53 the integer it was given, a float ``-0.0``
still negative -- and survive a snapshot export and restore bit for
bit.
"""

from __future__ import annotations

import io
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cracking.piecemap import PieceMap

_INT64_EDGES = [
    -(2**63),
    -(2**53) - 1,
    2**53 + 1,
    2**53 + 2,
    2**53 + 3,
    2**62 + 1,
    2**63 - 1,
]

_VALUES = {
    np.int32: st.one_of(
        st.integers(-(2**31), 2**31 - 1),
        st.sampled_from([-(2**31), -1, 0, 1, 2**31 - 1]),
    ),
    np.int64: st.one_of(
        st.integers(-(2**63), 2**63 - 1), st.sampled_from(_INT64_EDGES)
    ),
    np.float64: st.one_of(
        st.floats(allow_nan=False),
        st.sampled_from([-np.inf, np.inf, -0.0, 0.0, 2.0**53, 1e300]),
    ),
}


def _exact(values: list) -> list[tuple[type, str]]:
    """``values`` with their types and reprs: equal only bit for bit
    (``-0.0`` is not ``0.0``, ``2**53 + 1`` is not ``2.0**53``)."""
    return [(type(value), repr(value)) for value in values]


class _Model:
    """A piece map as a dict from pivot to cut, plus a row count."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.cut_of: dict = {}

    def pivots(self) -> list:
        return sorted(self.cut_of)

    def cuts(self) -> list[int]:
        return [self.cut_of[pivot] for pivot in self.pivots()]

    def piece(self, value) -> tuple[int, int, int]:
        """``(index, start, end)`` of the piece holding ``value``."""
        pivots = self.pivots()
        cuts = self.cuts()
        i = bisect_right(pivots, value)
        return i, cuts[i - 1] if i else 0, cuts[i] if i < len(cuts) else self.n


def _assert_matches(pieces: PieceMap, model: _Model, scalar: type) -> None:
    pivots, cuts = pieces.pivots(), pieces.cuts()
    assert pivots == model.pivots()
    assert cuts == model.cuts()
    assert all(type(pivot) is scalar for pivot in pivots)
    assert all(type(cut) is int for cut in cuts)
    assert pieces.row_count == model.n
    assert pieces.cut_of == model.cut_of
    pieces.check_invariants()


def _restored(pieces: PieceMap) -> PieceMap:
    """``pieces`` exported as a snapshot writes it, through ``.npy``
    bytes, and rebuilt as a restore does."""
    arrays = []
    for array in (
        np.asarray(pieces.pivots(), dtype=pieces.dtype),
        np.asarray(pieces.cuts(), dtype=np.int64),
    ):
        buffer = io.BytesIO()
        np.save(buffer, array)
        buffer.seek(0)
        arrays.append(np.load(buffer))
    return PieceMap.from_state(pieces.row_count, *arrays, pieces.dtype)


@pytest.mark.parametrize("dtype", sorted(_VALUES, key=lambda t: t.__name__))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_piece_map_follows_its_model(dtype, data):
    values = _VALUES[dtype]
    scalar = float if dtype is np.float64 else int
    n = data.draw(st.integers(0, 60), label="n")
    pieces = PieceMap(n, dtype=np.dtype(dtype))
    model = _Model(n)
    for _ in range(data.draw(st.integers(1, 10), label="steps")):
        step = data.draw(
            st.sampled_from(["crack", "bulk", "deltas", "restore"]),
            label="step",
        )
        if step == "crack":
            value = data.draw(values, label="pivot")
            i, start, end, at_pivot = pieces.locate(value)
            assert (i, start, end) == model.piece(value)
            assert at_pivot == (value in model.cut_of)
            if not at_pivot:
                position = data.draw(st.integers(start, end), label="cut")
                pieces.add_crack_at(i, value, position)
                model.cut_of[value] = position
        elif step == "bulk":
            fresh = {
                value
                for value in data.draw(st.lists(values, max_size=6))
                if value not in model.cut_of
            }
            by_piece: dict[int, list] = {}
            for value in fresh:
                by_piece.setdefault(model.piece(value)[0], []).append(value)
            new = {}
            for group in by_piece.values():
                _, start, end = model.piece(group[0])
                positions = sorted(
                    data.draw(
                        st.lists(
                            st.integers(start, end),
                            min_size=len(group),
                            max_size=len(group),
                        ),
                        label="cuts",
                    )
                )
                new.update(zip(sorted(group), positions))
            order = sorted(new)
            pieces.insert_cracks_bulk(
                np.array(order, dtype=dtype),
                np.array([new[value] for value in order], dtype=np.int64),
            )
            model.cut_of.update(new)
        elif step == "deltas":
            bounds = [0, *model.cuts(), model.n]
            deltas = [
                data.draw(st.integers(start - end, 5), label="delta")
                for start, end in zip(bounds, bounds[1:])
            ]
            pieces.apply_deltas(deltas)
            shift = 0
            for pivot, delta in zip(model.pivots(), deltas):
                shift += delta
                model.cut_of[pivot] += shift
            model.n += sum(deltas)
        else:
            restored = _restored(pieces)
            assert _exact(restored.pivots()) == _exact(pieces.pivots())
            assert restored.cuts() == pieces.cuts()
            pieces = restored
        _assert_matches(pieces, model, scalar)
        assert _exact(pieces.pivots()) == _exact(model.pivots())
