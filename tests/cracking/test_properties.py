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
        pieces.add_crack(pivot, position)
        pieces.check_invariants()
    assert pieces.piece_count == pieces.crack_count + 1
    assert sum([p.size for p in pieces.pieces()]) == n
