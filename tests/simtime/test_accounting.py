"""Window accountants: amortized pricing must be bit-identical."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.simtime.accounting import WindowAccountant
from repro.simtime.charge import CostCharge
from repro.simtime.clock import SimClock


def _charged_clock() -> SimClock:
    clock = SimClock()
    clock.charge(CostCharge.for_scan(12345, 678))  # non-zero start
    return clock


def _drive(accountant) -> None:
    accountant.charge_query()
    accountant.charge_binary(17)
    accountant.charge_binary_pair(33)
    accountant.charge_warm_select(65)
    accountant.charge_crack(1000, 1)
    accountant.charge_crack(512, 2)
    accountant.charge_empty_crack()
    accountant.charge_materialize(4096)
    accountant.charge_scan(2048, 77)
    accountant.charge_scan_query(100, 3)
    accountant.charge_pending_merge(0, 55)
    accountant.charge_pending_merge(9, 200)


def _sequential_reference(clock: SimClock) -> None:
    """The exact charge stream `_drive` stands for, one event at a
    time through the classic clock interface."""
    clock.charge(CostCharge(queries=1))
    clock.charge(CostCharge.for_binary_search(17))
    clock.charge(CostCharge.for_binary_search(33))
    clock.charge(CostCharge.for_binary_search(33))
    clock.charge(CostCharge(queries=1))
    clock.charge(CostCharge.for_binary_search(65))
    clock.charge(CostCharge.for_binary_search(65))
    clock.charge(
        CostCharge(elements_cracked=1000, pieces_touched=1, cracks=1)
    )
    clock.charge(
        CostCharge(elements_cracked=512, pieces_touched=1, cracks=2)
    )
    clock.charge(CostCharge(cracks=1))
    clock.charge(CostCharge(elements_materialized=4096))
    clock.charge(
        CostCharge(elements_scanned=2048, elements_materialized=77)
    )
    clock.charge(CostCharge(queries=1))
    clock.charge(
        CostCharge(elements_scanned=100, elements_materialized=3)
    )
    clock.charge(CostCharge.for_pending_merge(0, 55))
    clock.charge(CostCharge.for_pending_merge(9, 200))


def test_window_accountant_is_bit_identical_to_per_event_charging():
    reference = _charged_clock()
    _sequential_reference(reference)

    clock = _charged_clock()
    accountant = WindowAccountant(clock)
    _drive(accountant)
    assert repr(accountant.now) == repr(reference.now())
    accountant.finish()
    assert repr(clock.now()) == repr(reference.now())
    assert clock.total_charge == reference.total_charge


def test_accountant_now_tracks_mid_window():
    clock = SimClock()
    accountant = WindowAccountant(clock)
    before = accountant.now
    accountant.charge_crack(100, 1)
    assert accountant.now > before
    # The clock itself only moves on finish.
    assert clock.now() == 0.0
    accountant.finish()
    assert clock.now() == accountant.now


def test_settle_batch_rejects_backwards_time_and_parallel_phases():
    clock = SimClock()
    clock.sleep(5.0)
    nothing = (0,) * 8
    with pytest.raises(ConfigError):
        clock.settle_batch(1.0, *nothing)
    clock.begin_parallel()
    with pytest.raises(ConfigError):
        clock.settle_batch(10.0, *nothing)
    clock.end_parallel()
    # scanned, cracked, materialized, comparisons, seeks, pieces,
    # queries, cracks
    clock.settle_batch(6.0, 1, 2, 3, 4, 5, 6, 7, 8)
    assert clock.now() == 6.0
    assert clock.total_charge == CostCharge(
        elements_scanned=1, elements_cracked=2, elements_materialized=3,
        comparisons=4, seeks=5, pieces_touched=6, queries=7, cracks=8,
    )
