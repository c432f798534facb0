"""The one latch protocol's shared/exclusive semantics, and the index's
monitor lock under a racing thread."""

import threading

import numpy as np

from repro.cracking.concurrency import PieceLatchTable, ReadWriteLatch
from repro.cracking.index import CrackerIndex
from repro.errors import LatchTimeout
from repro.simtime.clock import SimClock


def _in_thread(fn):
    """Run ``fn`` on another thread; return what it returned or raised."""
    outcome: list = []

    def run():
        try:
            outcome.append(fn())
        except LatchTimeout as exc:
            outcome.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=5)
    return outcome[0]


def test_shared_latches_coexist():
    table = PieceLatchTable()
    with table.read_piece(0) as first:

        def second_reader():
            with table.read_piece(0) as stalled:
                return stalled

        assert first is False
        assert _in_thread(second_reader) is False
    assert table.stats.grants == 2
    assert table.stats.conflicts == 0


def test_exclusive_excludes_everyone():
    latch = ReadWriteLatch()
    latch.acquire_write()
    try:
        for acquire in (latch.acquire_read, latch.acquire_write):
            got = _in_thread(lambda: acquire(timeout_s=0.01))
            assert isinstance(got, LatchTimeout)
    finally:
        latch.release_write()


def test_shared_blocks_exclusive_from_others():
    latch = ReadWriteLatch()
    latch.acquire_read()
    try:
        got = _in_thread(lambda: latch.acquire_write(timeout_s=0.01))
        assert isinstance(got, LatchTimeout)
    finally:
        latch.release_read()


def test_release_all_frees_pieces():
    table = PieceLatchTable()
    with table.write_pieces([0, 10]):
        pass
    assert table.stats.releases == 2

    def retake():
        with table.write_pieces([0, 10]) as stalled:
            return stalled

    assert _in_thread(retake) is False
    with table.exclusive() as stalled:
        assert stalled is False


def test_reacquire_same_mode_is_idempotent():
    """A key named twice is one grant of one latch, and the latch is
    free again afterwards: nothing is left held by the repeat."""
    table = PieceLatchTable()
    with table.write_pieces([4, 4]) as stalled:
        assert stalled is False
    assert table.stats.grants == 1
    assert table.stats.releases == 1

    def retake():
        with table.write_pieces([4]) as stalled:
            return stalled

    assert _in_thread(retake) is False
    with table.read_piece(4) as first:
        with table.read_piece(4) as second:
            assert (first, second) == (False, False)


def test_scheduler_defers_conflicting_queries():
    """A writer on a piece a reader holds waits, runs only after the
    reader leaves, and counts one conflict."""
    table = PieceLatchTable()
    order: list[str] = []
    with table.read_piece(5):

        def writer():
            with table.write_pieces([5]) as stalled:
                order.append("writer")
                return stalled

        thread = threading.Thread(target=lambda: order.append(writer()))
        thread.start()
        thread.join(timeout=0.05)
        assert thread.is_alive()  # deferred behind the reader
        order.append("reader done")
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert order == ["reader done", "writer", True]
    assert table.stats.conflicts == 1


def test_scheduler_disjoint_pieces_run_same_round():
    """Writers on disjoint pieces hold their latches at the same time."""
    table = PieceLatchTable()
    both_inside = threading.Barrier(2, timeout=5)
    stalls: list[bool] = []

    def writer(key: int) -> None:
        with table.write_pieces([key]) as stalled:
            both_inside.wait()  # breaks unless both hold at once
            stalls.append(stalled)

    threads = [threading.Thread(target=writer, args=(k,)) for k in (1, 2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5)
    assert not any(thread.is_alive() for thread in threads)
    assert stalls == [False, False]
    assert table.stats.conflicts == 0


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
