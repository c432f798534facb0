"""Concurrency stress under the latch witness.

Threads hammer one cracker index through the piece-latch facade with
the witness enabled; the run must finish with zero order violations,
zero unlatched mutations, and results that match the serial oracle.
This is the dynamic half of the lock-order story -- the static
analyzer proves the graph acyclic, the witness checks the protocol the
running code actually follows.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.analysis import witness
from repro.cracking.concurrency import LatchedCrackerAccess, PieceLatchTable
from repro.cracking.index import CrackerIndex
from repro.simtime.clock import SimClock

from tests.conftest import ground_truth_count

THREADS = 4
OPS_PER_THREAD = 60


@pytest.fixture(autouse=True)
def _no_leaked_witness():
    yield
    witness.disable()


def _bounds(seed: int, i: int) -> tuple[float, float]:
    # Deterministic per-thread query stream, no shared RNG.
    a = (seed * 1_000_003 + i * 7_919) % 100_000_000
    b = (seed * 999_983 + i * 104_729) % 100_000_000
    return (min(a, b), max(a, b) + 1)


def test_latched_access_stress_has_zero_witness_violations(small_column):
    index = CrackerIndex(small_column, clock=SimClock())
    table = PieceLatchTable()
    access = LatchedCrackerAccess(index, table)
    errors: list[BaseException] = []

    def worker(seed: int) -> None:
        try:
            for i in range(OPS_PER_THREAD):
                low, high = _bounds(seed, i)
                if i % 3 == 0:
                    access.crack_value(low)
                else:
                    result = access.select_range(low, high)
                    assert result.count == ground_truth_count(
                        small_column, low, high
                    )
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    with witness.enabled() as w:
        witness.arm(index, table)
        threads = [
            threading.Thread(target=worker, args=(seed,), name=f"stress-{seed}")
            for seed in range(THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    assert errors == []
    assert w.violations == [], [v.detail for v in w.violations]
    # The run exercised the protocol, it did not just idle.
    assert w.acquires == w.releases > 0
    assert w.mutation_checks > 0


def test_multi_key_batches_race_selects_with_zero_violations(small_column):
    """Worker-style batches -- one multi-key ``crack_value`` each --
    race latched selects from two foreground threads with the witness
    armed: every mutation is covered, multi-key acquisitions ascend,
    every count matches the oracle.  A shortened switch interval makes
    the threads interleave inside the protocol, not around it."""
    index = CrackerIndex(small_column, clock=SimClock())
    table = PieceLatchTable()
    access = LatchedCrackerAccess(index, table)
    errors: list[BaseException] = []
    cut = [0, 0]

    def batcher(seed: int) -> None:
        try:
            for i in range(OPS_PER_THREAD // 4):
                pivots = sorted(
                    float(_bounds(seed, 16 * i + k)[0]) for k in range(16)
                )
                cut[seed] += access.crack_value(pivots, min_piece_size=4)
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    def forager(seed: int) -> None:
        try:
            for i in range(OPS_PER_THREAD):
                low, high = _bounds(seed, i)
                result = access.select_range(low, high)
                assert result.count == ground_truth_count(
                    small_column, low, high
                )
        except BaseException as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with witness.enabled() as w:
            witness.arm(index, table)
            threads = [
                threading.Thread(target=batcher, args=(0,), name="batch-0"),
                threading.Thread(target=batcher, args=(1,), name="batch-1"),
                threading.Thread(target=forager, args=(2,), name="fg-0"),
                threading.Thread(target=forager, args=(3,), name="fg-1"),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)

    assert errors == []
    assert w.violations == [], [v.detail for v in w.violations]
    assert w.acquires == w.releases > 0
    assert w.mutation_checks > 0
    assert sum(cut) > 100  # the batches really cut, many keys at a time
    index.check_invariants()
    # Every cut is on the tape exactly once: no batch double-counted.
    assert index.crack_count == len(index.tape)


def test_exclusive_rebuild_races_readers_cleanly(small_column):
    """A whole-table exclusive (rebuild) interleaved with latched reads
    must respect the table-before-piece order throughout."""
    index = CrackerIndex(small_column, clock=SimClock())
    table = PieceLatchTable()
    access = LatchedCrackerAccess(index, table)
    stop = threading.Event()
    errors: list[BaseException] = []

    def reader() -> None:
        try:
            i = 0
            while not stop.is_set():
                low, high = _bounds(17, i)
                access.select_range(low, high)
                i += 1
        except BaseException as exc:
            errors.append(exc)

    with witness.enabled() as w:
        witness.arm(index, table)
        threads = [
            threading.Thread(target=reader, name=f"reader-{n}")
            for n in range(2)
        ]
        for t in threads:
            t.start()
        for _ in range(5):
            with table.exclusive():
                index.rebuild()
        stop.set()
        for t in threads:
            t.join()

    assert errors == []
    assert w.violations == [], [v.detail for v in w.violations]
