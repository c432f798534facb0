"""Unit tests for the parallel-phase accounting of the clocks."""

import pytest

from repro.errors import ConfigError
from repro.simtime.charge import CostCharge
from repro.simtime.clock import ParallelAccount, SimClock, WallClock
from repro.simtime.model import PS_PER_S, CostModel


def _seconds(model: CostModel, charge: CostCharge) -> float:
    return model.picoseconds(charge) / PS_PER_S


def _charge_seconds(clock, elements):
    return clock.charge(CostCharge(elements_scanned=elements))


def test_serial_charges_unchanged_by_phase_support():
    clock = SimClock(CostModel())
    seconds = _charge_seconds(clock, 1_000_000)
    assert clock.now() == pytest.approx(seconds)
    with pytest.raises(ConfigError):  # no phase is open
        clock.end_parallel()


def test_phase_advances_by_max_lane():
    clock = SimClock(CostModel())
    clock.begin_parallel()
    for lane, elements in ((0, 4_000_000), (1, 1_000_000)):
        clock.lane = lane
        _charge_seconds(clock, elements)
    account = clock.end_parallel()
    expected_max = _seconds(
        CostModel(), CostCharge(elements_scanned=4_000_000)
    )
    expected_sum = _seconds(
        CostModel(), CostCharge(elements_scanned=5_000_000)
    )
    assert account.elapsed_s == pytest.approx(expected_max)
    assert account.busy_s == pytest.approx(expected_sum)
    assert clock.now() == pytest.approx(expected_max)
    assert len(account.lanes) == 2
    assert account.busy_s / account.elapsed_s == pytest.approx(
        expected_sum / expected_max
    )


def test_lane_local_now_during_phase():
    clock = SimClock(CostModel())
    clock.begin_parallel()
    base = clock.now()
    seconds = _charge_seconds(clock, 2_000_000)
    # The named lane sees its own progress...
    assert clock.now() == pytest.approx(base + seconds)
    # ...while a lane with no work yet still sits at the phase's base.
    clock.lane = 1
    assert clock.now() == pytest.approx(base)
    clock.end_parallel()


def test_phase_progress_probes():
    clock = SimClock(CostModel())
    clock.begin_parallel()
    assert clock.parallel_elapsed() == 0.0
    assert clock.parallel_busy() == 0.0
    seconds = _charge_seconds(clock, 1_000_000)
    assert clock.parallel_elapsed() == pytest.approx(seconds)
    assert clock.parallel_busy() == pytest.approx(seconds)
    clock.end_parallel()


def test_empty_phase_costs_nothing():
    clock = SimClock(CostModel())
    clock.sleep(1.0)
    clock.begin_parallel()
    account = clock.end_parallel()
    assert account == ParallelAccount()
    assert clock.now() == pytest.approx(1.0)


def test_phases_cannot_nest_and_need_to_be_open():
    clock = SimClock(CostModel())
    clock.begin_parallel()
    with pytest.raises(ConfigError):
        clock.begin_parallel()
    clock.end_parallel()
    with pytest.raises(ConfigError):
        clock.end_parallel()


def test_sleep_lands_on_the_callers_lane():
    clock = SimClock(CostModel())
    clock.begin_parallel()
    clock.sleep(0.25)
    account = clock.end_parallel()
    assert account.elapsed_s == pytest.approx(0.25)
    assert clock.now() == pytest.approx(0.25)


def test_total_charge_still_accumulates_in_phase():
    clock = SimClock(CostModel())
    clock.begin_parallel()
    _charge_seconds(clock, 123)
    clock.end_parallel()
    assert clock.total_charge.elements_scanned == 123


def test_wall_clock_phase_reports_real_time():
    clock = WallClock()
    with pytest.raises(ConfigError):
        clock.end_parallel()
    clock.begin_parallel()
    with pytest.raises(ConfigError):  # the phase is open
        clock.begin_parallel()
    account = clock.end_parallel()
    assert account.elapsed_s >= 0.0
    assert account.busy_s == pytest.approx(account.elapsed_s)
