"""Unit tests for the virtual and wall clocks."""

import pytest

from repro.config import TINY
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


def test_clock_state_round_trips_exactly_from_a_parallel_phase():
    clock = SimClock(TINY.cost_model())
    clock.charge_crack(1234, 1)
    clock.sleep(3.3e-7)
    base = clock._now
    clock.begin_parallel()
    clock.charge_scan(99, 0)
    state = clock.state_dict()
    clock.end_parallel()
    # Captured inside the phase: the phase's base, not the lane.
    assert state["now_ps"] == base < clock._now
    back = SimClock(TINY.cost_model())
    back.restore_state(state)
    assert back._now == base
    assert back.state_dict() == state


def test_clock_state_with_an_older_lane_seq_is_refused():
    """A format-2 state written while lanes were keyed by thread
    carries ``lane_seq``; restore takes only what ``state_dict``
    writes, so it is refused and the clock is left as it was."""
    clock = SimClock(TINY.cost_model())
    clock.charge_crack(1234, 1)
    clock.charge_query()
    state = clock.state_dict()
    assert "lane_seq" not in state
    back = SimClock(TINY.cost_model())
    with pytest.raises(ValueError, match="state_dict never wrote"):
        back.restore_state({**state, "lane_seq": 7})
    assert back.state_dict() == SimClock(TINY.cost_model()).state_dict()
    back.restore_state(state)
    assert back.now() == clock.now()


def test_wall_clock_progresses_on_its_own():
    clock = WallClock()
    first = clock.now()
    second = clock.now()
    assert second >= first


def test_wall_clock_charge_returns_zero_but_tallies():
    clock = WallClock()
    assert clock.charge(CostCharge(elements_scanned=7)) == 0.0
    assert clock.total_charge.elements_scanned == 7
