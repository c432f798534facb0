"""Unit tests for the crack kernels."""

import numpy as np
import pytest

from repro.cracking.engine import (
    crack_in_three,
    crack_in_two,
    sort_piece,
    split_sorted_piece,
)
from repro.errors import CrackerError


def _column(seed: int = 0, n: int = 1_000) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 10_000, n).astype(
        np.int64
    )


def test_crack_in_two_partitions_correctly():
    array = _column()
    original = np.sort(array.copy())
    split = crack_in_two(array, 0, len(array), 5_000)
    assert np.all(array[:split] < 5_000)
    assert np.all(array[split:] >= 5_000)
    assert np.array_equal(np.sort(array), original)


def test_crack_in_two_respects_piece_bounds():
    array = _column()
    before = array.copy()
    crack_in_two(array, 100, 200, 5_000)
    assert np.array_equal(array[:100], before[:100])
    assert np.array_equal(array[200:], before[200:])


def test_crack_in_two_extreme_pivots():
    array = _column()
    split = crack_in_two(array, 0, len(array), -1)
    assert split == 0
    split = crack_in_two(array, 0, len(array), 100_000)
    assert split == len(array)


def test_crack_in_two_empty_piece():
    array = _column()
    before = array.copy()
    assert crack_in_two(array, 10, 10, 5_000) == 10
    assert np.array_equal(array, before)


def test_crack_in_two_rejects_bad_bounds():
    array = _column()
    with pytest.raises(CrackerError):
        crack_in_two(array, -1, 10, 5)
    with pytest.raises(CrackerError):
        crack_in_two(array, 10, 5, 5)
    with pytest.raises(CrackerError):
        crack_in_two(array, 0, len(array) + 1, 5)


def test_crack_in_three_partitions_into_bands():
    array = _column()
    lo, hi = crack_in_three(array, 0, len(array), 2_000, 8_000)
    assert np.all(array[:lo] < 2_000)
    assert np.all((array[lo:hi] >= 2_000) & (array[lo:hi] < 8_000))
    assert np.all(array[hi:] >= 8_000)


def test_crack_in_three_rejects_inverted_range():
    array = _column()
    with pytest.raises(CrackerError, match="inverted"):
        crack_in_three(array, 0, len(array), 9_000, 1_000)


def test_crack_in_three_degenerate_equal_bounds():
    array = _column()
    lo, hi = crack_in_three(array, 0, len(array), 5_000, 5_000)
    assert lo == hi
    assert np.all(array[:lo] < 5_000)
    assert np.all(array[lo:] >= 5_000)


def test_sort_piece_sorts_subrange_only():
    array = _column()
    before = array.copy()
    sort_piece(array, 100, 300)
    assert np.all(array[100:299] <= array[101:300])
    assert np.array_equal(array[:100], before[:100])
    assert np.array_equal(array[300:], before[300:])


def test_split_sorted_piece_binary_searches():
    array = np.arange(0, 100, dtype=np.int64)
    assert split_sorted_piece(array, 0, 100, 42) == 42
    # No data movement at all.
    assert np.array_equal(array, np.arange(0, 100))
