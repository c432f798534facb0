"""Property-based tests (hypothesis) for the cracking core.

These pin the load-bearing invariants:

* a cracker index answers any query sequence exactly like a naive
  filter over the base column;
* the physical partitioning always matches the piece map;
* the piece map's structural invariants survive arbitrary crack
  sequences.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cracking.index import CrackerIndex
from repro.cracking.piecemap import PieceMap
from repro.simtime.clock import SimClock
from repro.storage.column import Column


@st.composite
def column_and_queries(draw):
    values = draw(
        st.lists(
            st.integers(min_value=0, max_value=1_000),
            min_size=0,
            max_size=300,
        )
    )
    queries = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=-50, max_value=1_050),
                st.integers(min_value=0, max_value=400),
            ),
            min_size=1,
            max_size=30,
        )
    )
    return values, queries


@given(column_and_queries())
@settings(max_examples=60, deadline=None)
def test_cracking_select_matches_naive_filter(data):
    values, queries = data
    column = Column("A", np.array(values, dtype=np.int64))
    index = CrackerIndex(column, clock=SimClock())
    base = column.values
    for low, span in queries:
        high = low + span
        view = index.select_range(float(low), float(high))
        expected = int(np.count_nonzero((base >= low) & (base < high)))
        assert view.count == expected
        got = view.values()
        assert np.all((got >= low) & (got < high))
    index.check_invariants()
    # Cracking permutes, never loses or invents values.
    assert np.array_equal(np.sort(index.values), np.sort(base))


@given(column_and_queries())
@settings(max_examples=40, deadline=None)
def test_random_cracks_preserve_correctness(data):
    values, queries = data
    column = Column("A", np.array(values, dtype=np.int64))
    index = CrackerIndex(column, clock=SimClock())
    rng = np.random.default_rng(0)
    base = column.values
    for i, (low, span) in enumerate(queries):
        if i % 2 == 0:
            index.random_crack(rng, min_piece_size=1)
        high = low + span
        view = index.select_range(float(low), float(high))
        expected = int(np.count_nonzero((base >= low) & (base < high)))
        assert view.count == expected
    index.check_invariants()


@given(
    st.integers(min_value=0, max_value=500),
    st.lists(
        st.floats(
            min_value=0, max_value=1_000, allow_nan=False
        ),
        max_size=50,
    ),
)
@settings(max_examples=60, deadline=None)
def test_piecemap_invariants_under_value_ordered_cracks(n, pivots):
    """Cut positions proportional to pivot values keep all invariants."""
    pieces = PieceMap(n)
    for pivot in pivots:
        if pieces.has_pivot(pivot):
            continue
        piece = pieces.piece_for_value(pivot)
        # A position consistent with value order inside the piece.
        position = piece.start + piece.size // 2
        pieces.add_crack_at(pieces.locate(pivot)[0], pivot, position)
        pieces.check_invariants()
    assert pieces.piece_count == pieces.crack_count + 1
    assert sum([p.size for p in pieces.pieces()]) == n


_MAP_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(-1_000, 1_000)),
        st.tuples(
            st.just("bulk"),
            st.lists(st.integers(-1_000, 1_000), max_size=8),
        ),
        st.tuples(st.just("deltas"), st.integers(0, 2**32)),
        st.tuples(st.just("restore"), st.just(0)),
    ),
    max_size=25,
)


@given(st.integers(min_value=0, max_value=400), _MAP_STEPS)
@settings(max_examples=80, deadline=None)
def test_cut_of_tracks_every_mutation(n, steps):
    """``cut_of`` is ``dict(zip(pivots, cuts))`` after every
    mutation; ``apply_deltas`` refills the dict its holders see, and
    only a restored map is a new one."""
    pieces = PieceMap(n, dtype=np.dtype(np.int64))
    for kind, arg in steps:
        held = pieces.cut_of
        if kind == "add":
            index, start, end, at_pivot = pieces.locate(arg)
            if not at_pivot:
                pieces.add_crack_at(index, arg, (start + end) // 2)
        elif kind == "bulk":
            fresh = sorted({v for v in arg if not pieces.has_pivot(v)})
            positions = [
                (start + end) // 2
                for _, start, end, _ in map(pieces.locate, fresh)
            ]
            pieces.insert_cracks_bulk(
                np.array(fresh, dtype=np.int64), np.array(positions)
            )
        elif kind == "deltas":
            rng = np.random.default_rng(arg)
            sizes = [piece.size for piece in pieces.pieces()]
            pieces.apply_deltas(
                [int(rng.integers(-size, 4)) for size in sizes]
            )
        else:
            pieces = PieceMap.from_state(
                pieces.row_count,
                np.array(pieces.pivots(), dtype=np.int64),
                np.array(pieces.cuts(), dtype=np.int64),
                np.dtype(np.int64),
            )
            assert pieces.cut_of is not held
            held = pieces.cut_of
        assert pieces.cut_of is held
        assert pieces.cut_of == dict(zip(pieces.pivots(), pieces.cuts()))
        pieces.check_invariants()
