"""The index's monitor lock under racing threads: worker batches on one
index, and an invariant check beside a cracking thread."""

import sys
import threading

import numpy as np

from repro.cracking.concurrency import LatchedCrackerAccess
from repro.cracking.index import CrackerIndex
from repro.simtime.clock import SimClock

from tests.conftest import ground_truth_count


def _racing(*targets) -> list[BaseException]:
    """Run every target on its own thread with a short switch interval
    (threads interleave inside the index's passes, not around them);
    returns what they raised."""
    errors: list[BaseException] = []

    def guarded(target):
        def run():
            try:
                target()
            except BaseException as exc:  # surfaced to the caller
                errors.append(exc)

        return run

    threads = [threading.Thread(target=guarded(t)) for t in targets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return errors


def test_crack_value_batches_from_threads_cut_what_one_pass_cuts(
    small_column,
):
    """Two threads apply interleaved 16-pivot batches to one index
    while two more read through the same access: the index ends with
    exactly the cuts one serial ``ensure_cuts`` of every pivot and
    bound makes, every cut is on the tape once when the batches'
    records are priced, and every read is exact."""
    grid = np.linspace(1e5, 9.99e7, 240).tolist()
    # Reads bound halfway between pivots, over 1 to 12 pieces.
    mids = [(a + b) / 2 for a, b in zip(grid, grid[1:])]
    ranges = [
        [(mids[i], mids[i + 1 + i % 12]) for i in range(r, 200, 2)]
        for r in (0, 1)
    ]
    reference = CrackerIndex(small_column, clock=SimClock())
    reference.ensure_cuts(
        grid + [bound for reads in ranges for pair in reads for bound in pair]
    )
    # No reference piece is at the batches' floor, so no pivot of
    # either thread can be judged degenerate whatever the order.
    assert min(p.size for p in reference.piece_map.pieces()) > 1
    index = CrackerIndex(small_column, clock=SimClock())
    access = LatchedCrackerAccess(index)
    records = [[], []]

    def batcher(seed: int):
        def run():
            mine = grid[seed::2]
            for start in range(0, len(mine), 16):
                batch = mine[start : start + 16]
                records[seed].append(access.crack_value(batch))

        return run

    def reader(reads):
        def run():
            for low, high in reads:
                result = access.select_range(low, high)
                assert result.count == ground_truth_count(
                    small_column, low, high
                )

        return run

    errors = _racing(batcher(0), batcher(1), *map(reader, ranges))
    assert errors == []
    index.check_invariants()
    assert index.piece_map.pivots() == reference.piece_map.pivots()
    assert index.piece_map.cuts() == reference.piece_map.cuts()
    # The batches' passes are priced afterwards, on this thread, as an
    # idle window's thread prices its workers' records.
    passes = records[0] + records[1]
    for record in passes:
        index.price_pass(record)
    assert sum(len(record.fresh) for record in passes) == len(grid)
    assert index.crack_count == index.tape.count()


def test_check_invariants_beside_a_cracking_thread(small_column):
    """Regression: ``check_invariants`` was the one structural reader
    that skipped the index's monitor lock, so a check racing a crack
    saw the piece map mid-shift (``pivots[i] == pivots[i + 1]``) and
    reported corruption that was not there."""
    import sys
    import time

    index = CrackerIndex(small_column, clock=SimClock())
    values = np.random.default_rng(11).permutation(small_column.values)
    errors: list[BaseException] = []
    stop = threading.Event()

    def crack() -> None:
        try:
            for value in values:
                if stop.is_set():
                    return
                index.ensure_cut(float(value))
        except BaseException as exc:  # surfaced through ``errors``
            errors.append(exc)
        finally:
            stop.set()

    def check() -> None:
        try:
            while not stop.is_set():
                index.check_invariants()
        except BaseException as exc:
            errors.append(exc)
            stop.set()

    threads = [threading.Thread(target=crack), threading.Thread(target=check)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 1.0
        while not stop.is_set() and time.monotonic() < deadline:
            time.sleep(0.01)
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert index.piece_count > 1
