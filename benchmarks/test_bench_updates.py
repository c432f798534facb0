"""Wall-clock microbenchmarks of the pending-update overlay and staging.

Four cases at the shape ``perfbench``'s ``mixed_rw`` workload reaches
(~4,000-row int32 results out of a 4 x 10^6-row cracked column, 7.5 k
pending inserts and 3.7 k pending deletes on an int64 column, so a
0.1 % read overlaps ~8 inserts and ~4 deletes; writes are 16-row
batches): the overlay at select time, the overlay plus ``values()``
-- a select that hands back a view only moves the copy to the reader,
so the pair has to get cheaper too, not just the select -- and one
insert / one delete batch against the full store.
"""

from itertools import cycle

import numpy as np
import pytest

from repro.engine.operators import apply_pending
from repro.simtime.clock import WallClock
from repro.storage.dtypes import INT64
from repro.storage.updates import PendingUpdates
from repro.storage.views import RangeView

ROWS = 4_000_000
RESULT_ROWS = 4_000
PENDING_INSERTS = 7_500
PENDING_DELETES = 3_700
BATCH = 16
#: Reads a round of the overlay cases answers (their times are per round).
READS = 64
DOMAIN = 2**31 - 1


@pytest.fixture(scope="module")
def cracked():
    """A converged cracker column: value-ordered runs of
    ``RESULT_ROWS`` rows, unordered inside each run."""
    rng = np.random.default_rng(21)
    values = np.sort(rng.integers(0, DOMAIN, size=ROWS).astype(np.int32))
    runs = values.reshape(-1, RESULT_ROWS)
    # A read is [first value of its run, first value of the next):
    # only runs that share no value with a neighbour answer one.
    bounds = [
        (i, int(runs[i, 0]), int(runs[i + 1, 0]))
        for i in range(1, len(runs) - 1, 4)
        if runs[i - 1, -1] < runs[i, 0] and runs[i, -1] < runs[i + 1, 0]
    ]
    return rng.permuted(runs, axis=1).ravel(), bounds


@pytest.fixture(scope="module")
def staged(cracked):
    """``(inserts, positions, values)`` of the pending backlog."""
    column, _ = cracked
    rng = np.random.default_rng(22)
    inserts = rng.integers(0, DOMAIN, size=PENDING_INSERTS)
    positions = rng.choice(ROWS, size=PENDING_DELETES, replace=False)
    return inserts, positions, column[positions].astype(np.int64)


def _store(cracked, staged) -> PendingUpdates:
    """A store that checks its deletes against the column: the overlay
    counts them without reading the select result."""
    inserts, positions, values = staged
    store = PendingUpdates(INT64, base=cracked[0])
    store.stage_inserts(inserts)
    store.stage_deletes(positions, values)
    return store


def _reads(cracked):
    """``READS`` reads spread over the column; a round answers them
    all, so every round sees the same mix of overlap sizes (0 to ~12
    deletes a read)."""
    column, bounds = cracked
    step = len(bounds) // READS
    return [
        (RangeView(column, run * RESULT_ROWS, (run + 1) * RESULT_ROWS),
         low, high)
        for run, low, high in bounds[::step][:READS]
    ]


@pytest.mark.benchmark(group="updates")
def test_bench_overlay_select(benchmark, cracked, staged):
    store, reads, clock = _store(cracked, staged), _reads(cracked), WallClock()

    def action():
        return [
            apply_pending(view, store, low, high, clock).count
            for view, low, high in reads
        ]

    counts = benchmark(action)
    assert all(0 < count < 2 * RESULT_ROWS for count in counts)


@pytest.mark.benchmark(group="updates")
def test_bench_overlay_select_and_values(benchmark, cracked, staged):
    store, reads, clock = _store(cracked, staged), _reads(cracked), WallClock()

    def action():
        answers = []
        for view, low, high in reads:
            result = apply_pending(view, store, low, high, clock)
            answers.append((result.count, result.values()))
        return answers

    answers = benchmark(action)
    assert all(count == len(values) for count, values in answers)


@pytest.mark.benchmark(group="updates")
def test_bench_stage_inserts(benchmark, cracked, staged):
    rng = np.random.default_rng(23)
    batches = cycle(rng.integers(0, DOMAIN, size=(64, BATCH)))

    def setup():
        return (_store(cracked, staged), next(batches)), {}

    def action(store, batch):
        return store.stage_inserts(batch)

    assert benchmark.pedantic(action, setup=setup, rounds=300) == BATCH


@pytest.mark.benchmark(group="updates")
def test_bench_stage_deletes(benchmark, cracked, staged):
    column, _ = cracked
    rng = np.random.default_rng(24)
    fresh = rng.permutation(
        np.setdiff1d(np.arange(ROWS), staged[1])
    )[: 64 * BATCH].reshape(-1, BATCH)
    batches = cycle(fresh)

    def setup():
        positions = next(batches)
        values = column[positions].astype(np.int64)
        return (_store(cracked, staged), positions, values), {}

    def action(store, positions, values):
        return store.stage_deletes(positions, values)

    assert benchmark.pedantic(action, setup=setup, rounds=300) == BATCH
