"""Additional property-based tests: multiset algebra and sideways
alignment."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cracking.sideways import SidewaysCrackerIndex
from repro.simtime.clock import SimClock
from repro.storage.column import Column
from repro.storage.table import Table
from repro.storage.views import multiset_difference

ints = st.integers(min_value=-1_000, max_value=1_000)


@given(st.lists(ints, max_size=100), st.lists(ints, max_size=30))
@settings(max_examples=80, deadline=None)
def test_multiset_difference_is_multiset_subtraction(values, removals):
    array = np.array(values, dtype=np.int64)
    removal = np.array(removals, dtype=np.int64)
    result = multiset_difference(array, removal)
    # Counter model: subtraction floored at zero (removals beyond the
    # stored multiplicity are ignored).
    from collections import Counter

    expected = Counter(values)
    expected.subtract(Counter(removals))
    expected = Counter({k: v for k, v in expected.items() if v > 0})
    assert Counter(result.tolist()) == expected
    assert len(result) <= len(array)


@st.composite
def table_and_ranges(draw):
    n = draw(st.integers(min_value=1, max_value=150))
    heads = draw(
        st.lists(
            st.integers(min_value=0, max_value=500),
            min_size=n,
            max_size=n,
        )
    )
    tails = list(range(n))  # unique payloads make alignment checkable
    ranges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=-50, max_value=550),
                st.integers(min_value=0, max_value=200),
            ),
            min_size=1,
            max_size=10,
        )
    )
    return heads, tails, ranges


@given(table_and_ranges())
@settings(max_examples=40, deadline=None)
def test_sideways_projection_matches_positional_join(data):
    heads, tails, ranges = data
    table = Table("T")
    table.add_column(Column("H", np.array(heads, dtype=np.int64)))
    table.add_column(Column("P", np.array(tails, dtype=np.int64)))
    index = SidewaysCrackerIndex(table, "H", clock=SimClock())
    base_h = np.array(heads, dtype=np.int64)
    base_p = np.array(tails, dtype=np.int64)
    for low, span in ranges:
        high = low + span
        view = index.select_project(float(low), float(high), "P")
        expected = base_p[(base_h >= low) & (base_h < high)]
        assert sorted(view.values().tolist()) == sorted(
            expected.tolist()
        )
    index.check_invariants()
