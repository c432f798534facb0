"""Wall-clock microbenchmarks of the physical kernels.

These measure the numpy kernels on *this* machine -- the numbers a
re-calibration of the cost model would start from (``simtime/costs.py``
holds the paper-testbed equivalents).
"""

import numpy as np
import pytest

from repro.cracking.engine import crack_in_three, crack_in_two
from repro.cracking.index import CrackerIndex
from repro.offline.fullindex import FullIndex
from repro.simtime.clock import WallClock


@pytest.mark.benchmark(group="kernels")
def test_bench_crack_in_two(benchmark, bench_column):
    def action():
        values = bench_column.copy_values()
        return crack_in_two(values, 0, len(values), 50_000_000)

    split, charge = benchmark(action)
    assert 0 < split < bench_column.row_count
    assert charge.elements_cracked == bench_column.row_count


@pytest.mark.benchmark(group="kernels")
def test_bench_crack_in_three(benchmark, bench_column):
    def action():
        values = bench_column.copy_values()
        return crack_in_three(
            values, 0, len(values), 25_000_000, 75_000_000
        )

    lo, hi, _charge = benchmark(action)
    assert 0 < lo < hi < bench_column.row_count


@pytest.mark.benchmark(group="kernels")
def test_bench_full_scan_select(benchmark, bench_column):
    from repro.engine.operators import scan_select

    clock = WallClock()
    view = benchmark(
        scan_select, bench_column.values, 25_000_000, 26_000_000, clock
    )
    assert view.count > 0


@pytest.mark.benchmark(group="kernels")
def test_bench_full_sort_build(benchmark, bench_column):
    def action():
        index = FullIndex(bench_column, WallClock())
        index.build()
        return index

    index = benchmark(action)
    assert index.is_built


@pytest.mark.benchmark(group="kernels")
def test_bench_sorted_probe(benchmark, bench_column):
    index = FullIndex(bench_column, WallClock())
    index.build()
    view = benchmark(index.select_range, 25_000_000, 26_000_000)
    assert view.count > 0


@pytest.mark.benchmark(group="kernels")
def test_bench_cracking_query_sequence(benchmark, bench_column):
    """100 cracking selects: the adaptive-indexing hot path."""
    rng = np.random.default_rng(5)
    lows = rng.uniform(1, 9e7, size=100)

    def action():
        index = CrackerIndex(bench_column, clock=WallClock())
        total = 0
        for low in lows:
            total += index.select_range(low, low + 1e6).count
        return total

    total = benchmark.pedantic(action, iterations=1, rounds=3)
    assert total > 0


@pytest.mark.benchmark(group="kernels")
def test_bench_random_crack_action(benchmark, bench_column):
    """The holistic auxiliary action on a warmed index."""
    index = CrackerIndex(bench_column, clock=WallClock())
    rng = np.random.default_rng(7)
    for _ in range(64):
        index.random_crack(rng, min_piece_size=2)

    def action():
        return index.random_crack(rng, min_piece_size=2)

    benchmark(action)
    assert index.piece_count > 64
