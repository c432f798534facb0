"""Unit tests for cost charges."""

import pytest

from repro.simtime.charge import CostCharge
from repro.simtime.clock import SimClock


def test_default_charge_is_zero():
    assert not any(CostCharge().as_dict().values())


def test_addition_merges_every_field():
    a, b = range(1, 11), range(20, 120, 10)
    merged = CostCharge()
    merged += CostCharge(*a)
    merged += CostCharge(*b)
    assert merged == CostCharge(*map(sum, zip(a, b)))


def test_addition_leaves_operands_untouched():
    """``+=`` changes its target alone."""
    a = CostCharge(elements_scanned=5)
    b = CostCharge(elements_scanned=3)
    a += b
    assert a.elements_scanned == 8
    assert b.elements_scanned == 3


def test_for_binary_search_scales_with_log():
    """A binary-search probe counts one comparison per bit of the
    searched size and one seek, whatever the size."""
    small, large = SimClock(), SimClock()
    small.charge_probes(16, 1)
    large.charge_probes(1 << 20, 1)
    assert small.total_charge.comparisons < large.total_charge.comparisons
    assert small.total_charge.seeks == large.total_charge.seeks == 1


def test_for_binary_search_handles_degenerate_sizes():
    for n in (0, 1):
        clock = SimClock()
        clock.charge_probes(n, 1)
        assert clock.total_charge.comparisons >= 1


def test_inplace_addition_accumulates():
    total = CostCharge()
    total += CostCharge(elements_cracked=10)
    total += CostCharge(elements_cracked=7, pieces_touched=1)
    assert total.elements_cracked == 17
    assert total.pieces_touched == 1


def test_add_rejects_other_types():
    total = CostCharge()
    with pytest.raises(TypeError):
        total += 5
    with pytest.raises(TypeError):
        _ = CostCharge() + CostCharge()


def test_copy_is_independent():
    original = CostCharge(seeks=2)
    clone = CostCharge()
    clone += original
    clone.seeks += 1
    assert original.seeks == 2
    assert clone.seeks == 3
