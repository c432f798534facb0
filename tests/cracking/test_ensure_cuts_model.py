"""``ensure_cuts`` against a model written from its batch charge model.

A tuning batch runs the same physical pass as a window of selects and
prices the pass's record piece by piece, right to left:

* one pivot in a piece: ``for_crack(size)``, or ``CostCharge(cracks=1)``
  when the piece is empty;
* ``k >= 2`` pivots in a piece: ``CostCharge(2 * size, 1, k)``.

A piece whose rows happen to be sorted (``sort_piece_at``) is priced
like any other.  The model below derives positions, the final piece
map, the tape and the clock from those rules and the base column
alone, on int32-narrowed, int64-beyond-2^53 and float64 columns.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cracking.index import CrackerIndex
from repro.simtime.charge import CostCharge
from repro.simtime.clock import SimClock
from repro.storage.column import Column

BIG = 2**60

#: (numpy dtype, value of grid point x, pivot of grid point x).  Values
#: sit on every 7th point so pre-cuts leave empty pieces behind.
DOMAINS = {
    "int32-narrowed": (np.int64, lambda x: 7 * x, lambda x: x),
    "int64-beyond-2^53": (np.int64, lambda x: BIG + 7 * x, lambda x: BIG + x),
    "float64": (np.float64, lambda x: 7.0 * x, lambda x: x / 2),
}


@st.composite
def batches(draw):
    domain = draw(st.sampled_from(sorted(DOMAINS)))
    dtype, value_of, pivot_of = DOMAINS[domain]
    grid = st.integers(min_value=-60, max_value=60)
    values = [value_of(x) for x in draw(st.lists(grid, min_size=1, max_size=80))]
    pivot_grid = st.integers(min_value=-440, max_value=440)
    pre_cuts = [pivot_of(x) for x in draw(st.lists(pivot_grid, max_size=8))]
    sort_picks = draw(st.lists(st.integers(0, 20), max_size=3))
    fresh = [pivot_of(x) for x in draw(st.lists(pivot_grid, max_size=12))]
    repeats = draw(st.lists(st.sampled_from(fresh + pre_cuts or [0]), max_size=4))
    if domain == "int32-narrowed" and draw(st.booleans()):
        # A float bound on an integer column cuts at its ceiling.
        fresh.append(draw(pivot_grid) + 0.5)
    batch = draw(st.permutations(fresh + repeats))
    return dtype, values, pre_cuts, sort_picks, batch


def _key(dtype, value):
    if np.issubdtype(dtype, np.integer) and isinstance(value, float):
        return math.ceil(value)
    return value


def _prepared(dtype, values, pre_cuts, sort_picks) -> CrackerIndex:
    index = CrackerIndex(
        Column("A", np.array(values, dtype=dtype)), clock=SimClock()
    )
    for cut in pre_cuts:
        index.ensure_cut(cut)
    for pick in sort_picks:
        index.sort_piece_at(pick % index.piece_count)
    return index


def _model(dtype, values, index: CrackerIndex, batch, copy_pending, clock):
    """Charge ``clock`` and return ``(positions, pivots, cuts, tape)``
    as the batch charge model prescribes, from the pre-batch piece map
    and the base values."""
    below = lambda v: sum(1 for x in values if x < v)  # noqa: E731
    pivots = index.piece_map.pivots()
    cuts = index.piece_map.cuts()
    bounds = [0, *cuts, len(values)]
    keys = [_key(dtype, value) for value in batch]
    fresh = sorted(set(keys) - set(pivots))
    groups: dict[int, list] = {}
    for value in fresh:
        groups.setdefault(bisect_right(pivots, value), []).append(value)
    if fresh and copy_pending:
        clock.charge(CostCharge(elements_materialized=len(values)))
    tape = []
    for piece in sorted(groups, reverse=True):
        group = groups[piece]
        size = bounds[piece + 1] - bounds[piece]
        if len(group) > 1:
            charge = CostCharge(
                elements_cracked=2 * size, pieces_touched=1, cracks=len(group)
            )
        elif size:
            charge = CostCharge.for_crack(size)
        else:
            charge = CostCharge(cracks=1)
        clock.charge(charge)
        now = clock.now()
        tape.extend((value, below(value), size, now) for value in group)
    final = sorted(set(pivots) | set(fresh))
    return (
        [below(key) for key in keys],
        final,
        [below(v) for v in final],
        tape,
    )


@settings(max_examples=150, deadline=None)
@given(batches())
def test_ensure_cuts_matches_the_batch_charge_model(case):
    dtype, values, pre_cuts, sort_picks, batch = case
    index = _prepared(dtype, values, pre_cuts, sort_picks)
    model = _prepared(dtype, values, pre_cuts, sort_picks)
    copy_pending = not pre_cuts and not sort_picks
    logged = len(index.tape)
    expected = _model(dtype, values, model, batch, copy_pending, model.clock)
    positions, pivots, cuts, tape = expected

    assert index.ensure_cuts(list(batch)) == positions
    assert index.piece_map.pivots() == pivots
    assert index.piece_map.cuts() == cuts
    assert [
        (r.pivot, r.position, r.piece_size, r.timestamp)
        for r in index.tape.records()[logged:]
    ] == tape
    assert index.clock.now() == model.clock.now()
    assert index.clock.total_charge == model.clock.total_charge
    index.check_invariants()
