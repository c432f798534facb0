"""Unit tests for stochastic cracking variants."""

import numpy as np
import pytest

from repro.cracking.stochastic import StochasticCrackerIndex
from repro.errors import ConfigError
from repro.simtime.clock import SimClock
from repro.storage.catalog import ColumnRef
from repro.workload.generators import SequentialRangeGenerator

from tests.conftest import ground_truth_count


@pytest.mark.parametrize("variant", ["ddc", "ddr", "mdd1r"])
def test_variants_answer_correctly(variant, small_column, rng):
    index = StochasticCrackerIndex(
        small_column,
        variant=variant,
        seed=5,
        stop_piece_size=500,
        clock=SimClock(),
    )
    for _ in range(40):
        low = float(rng.uniform(1, 9e7))
        high = low + float(rng.uniform(0, 1e7))
        result = index.select_range(low, high)
        assert result.count == ground_truth_count(
            small_column, low, high
        )
    index.check_invariants()


def test_unknown_variant_rejected(small_column):
    with pytest.raises(ConfigError, match="unknown stochastic variant"):
        StochasticCrackerIndex(small_column, variant="bogus")


def test_bad_stop_piece_size_rejected(small_column):
    with pytest.raises(ConfigError):
        StochasticCrackerIndex(small_column, stop_piece_size=1)


def test_ddc_shrinks_touched_pieces(small_column):
    index = StochasticCrackerIndex(
        small_column,
        variant="ddc",
        seed=5,
        stop_piece_size=1_000,
        clock=SimClock(),
    )
    index.select_range(50_000_000, 51_000_000)
    # Recursion keeps halving until the touched pieces are small.
    touched = index.piece_map.piece_for_value(50_000_000)
    assert touched.size <= 1_000


def test_mdd1r_does_not_crack_at_query_bounds(small_column):
    index = StochasticCrackerIndex(
        small_column,
        variant="mdd1r",
        seed=5,
        stop_piece_size=1_000,
        clock=SimClock(),
    )
    index.select_range(42_000_000.0, 43_000_000.0)
    assert not index.piece_map.has_pivot(42_000_000.0)
    assert not index.piece_map.has_pivot(43_000_000.0)
    # But it did refine somewhere.
    assert index.crack_count >= 1


def test_stochastic_beats_plain_on_sequential_sweep(small_column):
    """[10]'s headline: plain cracking degrades on sequential access."""
    from repro.cracking.index import CrackerIndex

    generator = SequentialRangeGenerator(
        ColumnRef("R", "A1"), 1, 100_000_000, selectivity=0.01
    )
    queries = [generator.next_query() for _ in range(150)]

    plain_clock = SimClock()
    plain = CrackerIndex(small_column, clock=plain_clock)
    for query in queries:
        plain.select_range(query.low, query.high)

    ddr_clock = SimClock()
    ddr = StochasticCrackerIndex(
        small_column,
        variant="ddr",
        seed=5,
        stop_piece_size=500,
        clock=ddr_clock,
    )
    for query in queries:
        ddr.select_range(query.low, query.high)

    assert ddr_clock.now() < plain_clock.now() / 2


def test_inverted_range_rejected(small_column):
    index = StochasticCrackerIndex(small_column, seed=1)
    with pytest.raises(Exception, match="inverted"):
        index.select_range(10, 5)
