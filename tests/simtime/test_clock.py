"""Unit tests for the virtual and wall clocks."""

import pytest

from repro.errors import ConfigError
from repro.simtime.charge import CostCharge
from repro.simtime.clock import SimClock, WallClock
from repro.simtime.model import CostModel


def test_sim_clock_starts_at_zero():
    assert SimClock().now() == 0.0


def test_sim_clock_advances_by_charge():
    clock = SimClock(CostModel())
    seconds = clock.charge(CostCharge(elements_scanned=1_000_000))
    assert seconds > 0
    assert clock.now() == pytest.approx(seconds)


def test_sim_clock_accumulates_total_charge():
    clock = SimClock()
    clock.charge(CostCharge(elements_scanned=10))
    clock.charge(CostCharge(elements_scanned=5, cracks=1))
    assert clock.total_charge.elements_scanned == 15
    assert clock.total_charge.cracks == 1


def test_sim_clock_sleep_moves_time_without_charges():
    clock = SimClock()
    clock.sleep(2.5)
    assert clock.now() == pytest.approx(2.5)
    assert clock.total_charge == CostCharge()


def test_sim_clock_rejects_negative_sleep():
    with pytest.raises(ConfigError):
        SimClock().sleep(-1.0)


def test_wall_clock_progresses_on_its_own():
    clock = WallClock()
    first = clock.now()
    second = clock.now()
    assert second >= first


def test_wall_clock_charge_returns_zero_but_tallies():
    clock = WallClock()
    assert clock.charge(CostCharge(elements_scanned=7)) == 0.0
    assert clock.total_charge.elements_scanned == 7
