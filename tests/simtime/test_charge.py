"""Unit tests for cost charges."""

import pytest

from repro.simtime.charge import CostCharge


def test_default_charge_is_zero():
    assert not any(CostCharge().as_dict().values())


def test_addition_merges_every_field():
    a = CostCharge(elements_scanned=5, comparisons=2, queries=1)
    b = CostCharge(elements_scanned=3, cracks=4)
    merged = a + b
    assert merged.elements_scanned == 8
    assert merged.comparisons == 2
    assert merged.queries == 1
    assert merged.cracks == 4


def test_addition_leaves_operands_untouched():
    a = CostCharge(elements_scanned=5)
    b = CostCharge(elements_scanned=3)
    _ = a + b
    assert a.elements_scanned == 5
    assert b.elements_scanned == 3


def test_inplace_addition_accumulates():
    total = CostCharge()
    total += CostCharge(elements_cracked=10)
    total += CostCharge(elements_cracked=7, pieces_touched=1)
    assert total.elements_cracked == 17
    assert total.pieces_touched == 1


def test_add_rejects_other_types():
    with pytest.raises(TypeError):
        _ = CostCharge() + 5


def test_copy_is_independent():
    original = CostCharge(seeks=2)
    clone = CostCharge()
    clone += original
    clone.seeks += 1
    assert original.seeks == 2
    assert clone.seeks == 3


def test_for_scan_factory():
    charge = CostCharge.for_scan(1_000, materialized=10)
    assert charge.elements_scanned == 1_000
    assert charge.elements_materialized == 10


def test_for_crack_factory_counts_action():
    charge = CostCharge.for_crack(500)
    assert charge.elements_cracked == 500
    assert charge.cracks == 1
    assert charge.pieces_touched == 1


def test_for_binary_search_scales_with_log():
    small = CostCharge.for_binary_search(16)
    large = CostCharge.for_binary_search(1 << 20)
    assert small.comparisons < large.comparisons
    assert small.seeks == large.seeks == 1


def test_for_binary_search_handles_degenerate_sizes():
    assert CostCharge.for_binary_search(0).comparisons >= 1
    assert CostCharge.for_binary_search(1).comparisons >= 1
