"""Additional property-based tests: multiset algebra."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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

