"""Regressions for the defects the static-analysis pass surfaced.

Each test here failed against the pre-lint code: latches stranded by
an exception between acquisition and its try/finally, wall-clock reads
bypassing the audited simtime helpers, and float needles promoting
int64 stores during binary search (lossy beyond 2^53).
"""

from __future__ import annotations

import inspect
import math

import numpy as np
import pytest

import repro.cracking.concurrency as concurrency
from repro.cracking.concurrency import PieceLatchTable
from repro.cracking.engine import (
    _count_below,
    crack_in_two_batch,
    crack_multi,
    crack_spans_batch,
    default_scratch,
    split_sorted_piece,
)
from repro.cracking.index import CrackerIndex
from repro.simtime.clock import SimClock, wall_sleep
from repro.storage.column import Column
from repro.util.retry import retry_call

# -- latch leaks ---------------------------------------------------------


def test_read_piece_releases_table_latch_when_lookup_raises():
    """read_piece acquires the table latch, then resolves the piece
    latch; a failure in between must not strand the table latch (it
    used to, wedging every later exclusive())."""
    table = PieceLatchTable()

    def boom(key):
        raise RuntimeError("injected lookup failure")

    table._latch = boom
    with pytest.raises(RuntimeError):
        with table.read_piece(0):
            pass  # pragma: no cover - never reached
    # Before the fix this timed out: the leaked read hold blocked the
    # table-level writer forever.
    assert table._table.acquire_write(timeout_s=0.5) is False
    table._table.release_write()


# -- wall-clock routing --------------------------------------------------


def test_concurrency_uses_the_audited_wall_helpers():
    """Deadline math goes through simtime.clock.wall_now -- the module
    must not import ``time`` at all (the determinism lint's contract)."""
    assert not hasattr(concurrency, "time")
    from repro.simtime.clock import wall_now

    assert concurrency.wall_now is wall_now


def test_retry_default_sleep_is_the_audited_helper():
    sleep_param = inspect.signature(retry_call).parameters["sleep"]
    assert sleep_param.default is wall_sleep


# -- exact int64 semantics beyond 2^53 -----------------------------------
#
# The kernels take keys in the column's domain -- Python ints for an
# integer column -- and compare them with the piece exactly.

B = 2**53  # float64 spacing becomes 2 here: odd ints are unrepresentable


def test_count_below_is_exact_beyond_2_53():
    view = np.array([B + 3], dtype=np.int64)
    # Promoted, B+3 rounds (half-to-even) to B+4 and stops counting.
    assert _count_below(view, B + 4, default_scratch()) == 1
    assert _count_below(view, B + 3, default_scratch()) == 0


def test_batch_kernels_are_exact_beyond_2_53():
    """The batch kernels compare integer pieces against integer keys
    exactly, never through float64."""
    values = [B + 3, B + 5, B + 5, B + 3]
    array = np.array(values, dtype=np.int64)
    # Promoted, B+3 rounds to B+4 and would not count below it.
    splits, _ = crack_in_two_batch(array, [(0, 2, B + 4), (2, 4, B + 4)])
    assert splits == [1, 3]
    assert array.tolist() == [B + 3, B + 5, B + 3, B + 5]
    array = np.array(values, dtype=np.int64)
    assert crack_spans_batch(
        array, [(0, 2, B + 4, B + 4), (2, 4, B + 4, B + 6)]
    ) == [(1, 1), (3, 4)]
    assert array.tolist() == [B + 3, B + 5, B + 3, B + 5]


def test_split_sorted_piece_is_exact_beyond_2_53():
    array = np.array([B + 1, B + 3, B + 5], dtype=np.int64)
    split, _ = split_sorted_piece(array, 0, 3, B + 4)
    # First element >= B+4 is B+5 at index 2.  The promoted search saw
    # [B, B+4, B+4] and answered 1.
    assert split == 2


def test_crack_multi_is_exact_beyond_2_53():
    array = np.array([B + 5, B + 1, B + 3, B - 2], dtype=np.int64)
    splits, _ = crack_multi(array, 0, 4, [B + 4])
    assert splits == [3]
    assert sorted(array[: splits[0]].tolist()) == [B - 2, B + 1, B + 3]
    assert array[splits[0]] == B + 5


def test_index_select_is_exact_beyond_2_53():
    """End to end: a select whose bounds straddle unrepresentable int64
    keys must count them exactly, cracking included."""
    values = np.arange(B - 8, B + 8, dtype=np.int64)
    rng = np.random.default_rng(11)
    rng.shuffle(values)
    index = CrackerIndex(Column("big", values), clock=SimClock())
    low, high = float(B + 2), float(B + 6)  # both exactly representable
    result = index.select_range(low, high)
    # Exact oracle in integer space (a float-compare oracle would carry
    # the same promotion bug the fix removed).
    expected = sum(
        1 for v in values.tolist() if v >= math.ceil(low) and v < math.ceil(high)
    )
    assert expected == 4
    assert result.count == expected
    # The crack positions the search found must partition the data.
    again = index.select_range(low, high)
    assert again.count == expected
