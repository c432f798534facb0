"""Equivalence of the batch/vectorized kernels with sequential cracks.

ISSUE 3 rewrote the crack kernels for throughput (selection-based
partitioning, batched classification, vectorized sorted-piece cuts).
These property tests pin the contract that made the rewrite safe:

* split positions are identical to sequential ``crack_in_two`` calls;
* every piece holds exactly the same value *multiset* (element order
  inside a piece is unspecified);
* row-id tracking stays aligned (the cracker map reconstructs the
  cracker column);
* the batched ``ensure_cuts`` produces bit-identical virtual-clock
  totals and tape contents to sequential ``ensure_cut`` calls.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cracking.engine import (
    crack_in_three,
    crack_in_two,
    crack_in_two_batch,
    crack_multi,
)
from repro.cracking.index import CrackerIndex
from repro.cracking.piece import CrackOrigin
from repro.simtime.clock import SimClock
from repro.storage.column import Column


@st.composite
def array_and_pivots(draw):
    values = draw(
        st.lists(
            st.integers(min_value=0, max_value=1_000),
            min_size=1,
            max_size=300,
        )
    )
    pivots = sorted(
        set(
            draw(
                st.lists(
                    st.integers(min_value=-5, max_value=1_005),
                    min_size=1,
                    max_size=8,
                )
            )
        )
    )
    track = draw(st.booleans())
    return values, [float(p) for p in pivots], track


def _fresh(values, track):
    array = np.asarray(values, dtype=np.int64)
    rowids = (
        np.arange(len(array), dtype=np.int64) if track else None
    )
    return array, rowids


def _piece_multisets(array, bounds):
    edges = [0, *bounds, len(array)]
    return [
        np.sort(array[a:b]).tolist()
        for a, b in zip(edges, edges[1:])
    ]


@settings(max_examples=60, deadline=None)
@given(array_and_pivots())
def test_crack_multi_matches_sequential_crack_in_two(case):
    values, pivots, track = case
    seq_array, seq_rowids = _fresh(values, track)
    seq_splits = []
    start, end = 0, len(seq_array)
    for pivot in pivots:
        split, _ = crack_in_two(seq_array, start, end, pivot, seq_rowids)
        seq_splits.append(split)
        start = split  # next pivot is larger; its band starts here
    batch_array, batch_rowids = _fresh(values, track)
    batch_splits, _ = crack_multi(
        batch_array, 0, len(batch_array), pivots, batch_rowids
    )
    assert batch_splits == seq_splits
    assert _piece_multisets(batch_array, batch_splits) == (
        _piece_multisets(seq_array, seq_splits)
    )
    if track:
        base = np.asarray(values, dtype=np.int64)
        assert np.array_equal(base[batch_rowids], batch_array)


@settings(max_examples=60, deadline=None)
@given(array_and_pivots())
def test_crack_in_two_batch_matches_sequential(case):
    values, pivots, track = case
    # Carve the array into disjoint pieces, one pivot per piece.
    array_len = len(values)
    edges = np.linspace(0, array_len, num=len(pivots) + 1, dtype=int)
    tasks = [
        (int(edges[i]), int(edges[i + 1]), pivots[i])
        for i in range(len(pivots))
    ]
    seq_array, seq_rowids = _fresh(values, track)
    seq_splits = [
        crack_in_two(seq_array, s, e, p, seq_rowids)[0]
        for s, e, p in tasks
    ]
    batch_array, batch_rowids = _fresh(values, track)
    batch_splits, charges = crack_in_two_batch(
        batch_array, tasks, batch_rowids
    )
    assert batch_splits == seq_splits
    assert len(charges) == len(tasks)
    for (s, e, _), charge in zip(tasks, charges):
        assert charge.cracks == 1
        assert charge.elements_cracked == (e - s if e > s else 0)
    for (s, e, _), split in zip(tasks, batch_splits):
        assert np.sort(batch_array[s:e]).tolist() == (
            np.sort(seq_array[s:e]).tolist()
        )
        assert np.sort(batch_array[s:split]).tolist() == (
            np.sort(seq_array[s:split]).tolist()
        )
    if track:
        base = np.asarray(values, dtype=np.int64)
        assert np.array_equal(base[batch_rowids], batch_array)


@settings(max_examples=60, deadline=None)
@given(array_and_pivots())
def test_crack_in_three_matches_two_sequential_cracks(case):
    values, pivots, track = case
    low = pivots[0]
    high = pivots[-1]
    seq_array, seq_rowids = _fresh(values, track)
    pos_low, _ = crack_in_two(seq_array, 0, len(seq_array), low, seq_rowids)
    pos_high, _ = crack_in_two(
        seq_array, pos_low, len(seq_array), high, seq_rowids
    )
    three_array, three_rowids = _fresh(values, track)
    t_low, t_high, _ = crack_in_three(
        three_array, 0, len(three_array), low, high, three_rowids
    )
    assert (t_low, t_high) == (pos_low, pos_high)
    assert _piece_multisets(three_array, [t_low, t_high]) == (
        _piece_multisets(seq_array, [pos_low, pos_high])
    )
    if track:
        base = np.asarray(values, dtype=np.int64)
        assert np.array_equal(base[three_rowids], three_array)


def _column(values):
    return Column("A1", np.asarray(values, dtype=np.int64))


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.integers(min_value=0, max_value=10_000),
        min_size=8,
        max_size=400,
    ),
    st.lists(
        st.floats(
            min_value=1, max_value=9_999, allow_nan=False, width=32
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_ensure_cuts_bit_identical_to_sequential(values, cut_values):
    """Batched single-pivot-per-piece cuts replicate sequential
    accounting exactly.

    The index is pre-cracked into coarse pieces, then every piece gets
    at most one new pivot, each charged as one crack of its piece.
    ``ensure_cuts`` processes pieces right-to-left, so the sequential
    reference issues its ``ensure_cut`` calls in descending value
    order; positions, virtual-clock totals and tape contents
    (timestamps included) must then match bit for bit.
    """
    column = _column(values)
    seq_index = CrackerIndex(column, clock=SimClock())
    batch_index = CrackerIndex(column, clock=SimClock())
    coarse = [2_500.0, 5_000.0, 7_500.0]
    for pivot in coarse:
        seq_index.ensure_cut(pivot)
        batch_index.ensure_cut(pivot)
    # Keep at most one fresh value per piece of the pre-cracked map.
    per_piece: dict[int, float] = {}
    for v in sorted(set(float(v) for v in cut_values) - set(coarse)):
        piece = batch_index.piece_map.piece_index_for_value(v)
        per_piece.setdefault(piece, v)
    distinct = sorted(per_piece.values())
    seq_positions = {
        v: seq_index.ensure_cut(v, CrackOrigin.TUNING)
        for v in sorted(distinct, reverse=True)
    }
    batch_positions = batch_index.ensure_cuts(distinct)
    assert batch_positions == [seq_positions[v] for v in distinct]
    assert batch_index.clock.now() == seq_index.clock.now()
    assert batch_index.tape.records() == seq_index.tape.records()
    batch_index.check_invariants()
    seq_index.check_invariants()



def test_ensure_cuts_sorted_piece_bit_identical(small_column):
    """A piece whose rows ``sort_piece_at`` sorted is cracked like any
    other: one pivot per piece, batched, replicates sequential
    ``ensure_cut`` calls (right to left) bit for bit."""
    indexes = [CrackerIndex(small_column, clock=SimClock()) for _ in "ab"]
    for index in indexes:
        index.ensure_cut(5e7)
        index.sort_piece_at(0)
    seq_index, batch_index = indexes
    cuts = [2.5e7, 8e7]
    seq_positions = [
        seq_index.ensure_cut(v, CrackOrigin.TUNING) for v in reversed(cuts)
    ]
    assert batch_index.ensure_cuts(cuts) == seq_positions[::-1]
    assert batch_index.clock.now() == seq_index.clock.now()
    assert batch_index.tape.records() == seq_index.tape.records()
    batch_index.check_invariants()
