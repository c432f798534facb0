"""Unit tests for the unrolled charge ops."""

from repro.simtime.charge import CostCharge


def test_add_and_iadd_match_fieldwise_sum():
    """``+=`` adds field by field and is the record's only addition."""
    a = CostCharge(elements_scanned=3, cracks=1, seeks=2)
    b = CostCharge(elements_scanned=4, comparisons=7, cracks=1)
    total = CostCharge(
        **{
            name: value + b.as_dict()[name]
            for name, value in a.as_dict().items()
        }
    )
    assert total.elements_scanned == 7
    assert total.comparisons == 7
    assert total.cracks == 2
    assert total.seeks == 2
    a += b
    assert a == total
    assert not hasattr(CostCharge, "__add__")
