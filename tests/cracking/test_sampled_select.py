"""The sampled-rank selection of the value-only crack kernels.

A piece of at least ``SAMPLE_THRESHOLD`` rows brackets its split(s)
with a band estimated from a strided sample, selects at the band edges
and counts only inside the band; a band that reaches a piece edge or
fails a guard falls back to counting the whole piece first.  No result
may depend on the sample.  These tests shrink the threshold and the
sample to a few dozen rows so small hypothesis arrays take every
branch, and pin:

* split positions and per-piece value multisets equal the count-first
  kernel's (the same kernel at the shipped threshold);
* the sampled branch, the edge fallback and both guard-miss fallbacks
  are all reached;
* two runs on one input leave byte-identical arrays;
* a large piece's count streams through a bounded scratch mask.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cracking import engine
from repro.cracking.engine import (
    CrackScratch,
    crack_in_three,
    crack_in_two,
    crack_multi,
    crack_spans_batch,
)
from repro.cracking.index import CrackerIndex
from repro.storage.column import Column

#: Shrunk so that arrays of 64..1,500 rows take the sampled path with a
#: band narrower than the piece.
SMALL = {"SAMPLE_THRESHOLD": 64, "SAMPLE_SIZE": 64}


@contextmanager
def small_sample():
    with mock.patch.multiple(engine, **SMALL):
        yield


@st.composite
def pieces(draw):
    """``(values, pivots)``: an array in one of the layouts the sampled
    path must survive and 1-3 ascending pivots drawn from its values
    (duplicates of the pivot) or from around them."""
    size = draw(st.integers(min_value=64, max_value=1_500))
    kind = draw(st.sampled_from(["int32", "int64", "big64", "float64"]))
    layout = draw(
        st.sampled_from(
            ["random", "few", "equal", "sorted", "reversed"]
            + ["periodic"] * 3  # the layout that fails guards
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stride = size // SMALL["SAMPLE_SIZE"]
    if layout == "few":
        values = rng.integers(0, 4, size)
    elif layout == "equal":
        values = np.full(size, 7)
    elif layout == "periodic":
        # Every stride-th row comes from another range than the rest
        # (below, above or across it): the sample sees only those rows,
        # and the pivots come from them.
        values = rng.integers(0, 1_000, size)
        low, high = draw(
            st.sampled_from(
                [(-3_000, -2_000), (2_000, 3_000), (-2_000, 3_000)]
            )
        )
        values[::stride] = rng.integers(low, high, values[::stride].size)
    else:
        values = rng.integers(-1_000, 1_000, size)
        if layout != "random":
            values.sort()
            if layout == "reversed":
                values = values[::-1].copy()
    if kind == "int32":
        array = values.astype(np.int32)
    elif kind == "big64":
        array = values.astype(np.int64) + 2**60  # beyond float64's 2^53
    elif kind == "int64":
        array = values.astype(np.int64)
    else:
        array = values.astype(np.float64) / 4
        holes = rng.random(size)
        array[holes < 0.05] = np.nan
        array[(holes >= 0.05) & (holes < 0.07)] = np.inf
        array[(holes >= 0.07) & (holes < 0.09)] = -np.inf
    # Pivots are values of the array (or just above one) at a drawn
    # rank, mostly mid-piece, where the shrunk sample's band fits.
    ordered = np.sort(array[::stride] if layout == "periodic" else array)
    nudge = [0.0, 0.1] if kind == "float64" else [0, 1]
    picks = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        share = draw(st.one_of(st.floats(0.4, 0.6), st.floats(0.0, 1.0)))
        value = ordered[min(int(share * ordered.size), ordered.size - 1)]
        picks.append(value.item() + draw(st.sampled_from(nudge)))
    picks = [p for p in picks if p == p] or [nudge[0]]  # NaN is no key
    return array, sorted(set(picks))


def _multisets(array, splits):
    edges = [0, *splits, len(array)]
    return [np.sort(array[a:b]) for a, b in zip(edges, edges[1:])]


def _assert_same_pieces(array, splits, reference, reference_splits):
    assert splits == reference_splits
    for ours, theirs in zip(
        _multisets(array, splits), _multisets(reference, reference_splits)
    ):
        np.testing.assert_array_equal(ours, theirs)


def _kernels(pivots):
    """Each value-only kernel as ``array -> split list``."""
    low, high = pivots[0], pivots[-1]

    def spans(array):
        half = len(array) // 2
        tasks = [(0, half, low, high), (half, len(array), high, high)]
        first, second = crack_spans_batch(array, tasks)
        return [*first, half, *second]

    return {
        "crack_in_two": lambda a: [crack_in_two(a, 0, len(a), low)[0]],
        "crack_in_three": lambda a: list(
            crack_in_three(a, 0, len(a), low, high)[:2]
        ),
        "crack_spans_batch": spans,
        "crack_multi": lambda a: crack_multi(a, 0, len(a), pivots)[0],
    }


@settings(max_examples=150, deadline=None)
@given(pieces())
def test_sampled_kernels_match_count_first(case):
    values, pivots = case
    for name, kernel in _kernels(pivots).items():
        reference = values.copy()
        reference_splits = kernel(reference)  # shipped threshold: counts
        with small_sample():
            first, second = values.copy(), values.copy()
            splits = kernel(first)
            assert kernel(second) == splits, name
        assert first.tobytes() == second.tobytes(), name
        _assert_same_pieces(first, splits, reference, reference_splits)


class _Spy:
    """Tells which branch a kernel's outermost sampled-size partition
    took: ``sampled``, ``edge`` (no band) or ``miss`` (a band, then a
    count of the whole piece)."""

    def __init__(self, monkeypatch):
        rank_band, count_below = engine._rank_band, engine._count_below
        self._band = None
        self._outer = None

        def spy_band(view, pivots):
            band = rank_band(view, pivots)
            if self._outer is None:
                self._outer, self._band = view.size, band
            return band

        def spy_count(view, pivot, scratch):
            if view.size == self._outer and self._band is not None:
                self._band = "miss"
            return count_below(view, pivot, scratch)

        monkeypatch.setattr(engine, "_rank_band", spy_band)
        monkeypatch.setattr(engine, "_count_below", spy_count)

    def run(self, kernel, array):
        self._outer = self._band = None
        splits = kernel(array)
        if self._band is None:
            return splits, "edge"
        return splits, "miss" if self._band == "miss" else "sampled"


def _periodic(size, stride, sampled_rows, other_rows):
    array = np.full(size, other_rows, dtype=np.int64)
    array[::stride] = sampled_rows(array[::stride].size)
    return array


@pytest.mark.parametrize(
    "array, pivots, branch",
    [
        # Uniform values, pivots in the middle: the band holds.
        (np.random.default_rng(5).permutation(1_024), (500,), "sampled"),
        (np.random.default_rng(6).permutation(1_024), (500, 520), "sampled"),
        # A pivot below almost every row: the band reaches the edge.
        (np.random.default_rng(7).permutation(1_024), (3,), "edge"),
        (np.random.default_rng(8).permutation(1_024), (100, 1_020), "edge"),
        # The sample sees only every 16th row.  Rows it never sees all
        # sit below the pivot: the true split lies beyond the upper
        # guard.
        (_periodic(1_024, 16, np.arange, -1), (32,), "miss"),
        # ... or all at/above it: the lower guard fails.
        (_periodic(1_024, 16, np.arange, 10**6), (32,), "miss"),
    ],
)
def test_every_branch_is_taken_and_exact(monkeypatch, array, pivots, branch):
    for name, attr in SMALL.items():
        monkeypatch.setattr(engine, name, attr)
    spy = _Spy(monkeypatch)
    reference = array.copy()
    with mock.patch.object(engine, "SAMPLE_THRESHOLD", 1 << 30):
        reference_splits = crack_multi(
            reference, 0, len(reference), list(pivots)
        )[0]
    cracked = array.copy()
    kernel = _kernels(list(pivots))[
        "crack_in_two" if len(pivots) == 1 else "crack_in_three"
    ]
    splits, taken = spy.run(kernel, cracked)
    assert taken == branch
    _assert_same_pieces(cracked, splits, reference, reference_splits)


def test_guard_miss_layouts_fail_the_guard_they_claim():
    """The two periodic layouts above miss on opposite sides."""
    with small_sample():
        for others, side in ((-1, "upper"), (10**6, "lower")):
            array = _periodic(1_024, 16, np.arange, others)
            a, b = engine._rank_band(array, (32,))
            view = array.copy()
            view.partition(a)
            view[a + 1 :].partition(b - a - 1)
            lower_ok, upper_ok = view[a] < 32, view[b] >= 32
            assert (lower_ok, upper_ok) == (
                (True, False) if side == "upper" else (False, True)
            )


def test_first_touch_keeps_scratch_within_the_mask_bound():
    """Counting a big piece streams it through a fixed-size mask: after
    the first touch of a 2^20-row column no scratch buffer is larger
    than ``MASK_CHUNK`` bytes (it used to grow to the whole piece)."""
    rows = 1 << 20
    values = np.random.default_rng(11).integers(0, 10**9, rows)
    for low, high in ((4 * 10**8, 5 * 10**8), (-5, 10**3)):
        index = CrackerIndex(Column("A1", values))
        result = index.select_range(low, high)
        expected = np.count_nonzero((values >= low) & (values < high))
        assert result.count == expected
        buffers = index._scratch._buffers
        assert "mask" in buffers
        assert all(buf.nbytes <= engine.MASK_CHUNK for buf in buffers.values())


def test_chunked_count_is_exact_across_chunk_edges():
    scratch = CrackScratch()
    size = 2 * engine.MASK_CHUNK + 17
    view = np.random.default_rng(3).integers(0, 100, size)
    for pivot in (0, 1, 50, 99, 100):
        assert engine._count_below(view, pivot, scratch) == int(
            np.count_nonzero(view < pivot)
        )
    assert scratch._buffers["mask"].size == engine.MASK_CHUNK
