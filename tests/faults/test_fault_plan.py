"""Unit tests for the deterministic fault-injection plane."""

import pytest

from repro import faults
from repro.errors import ConfigError, InjectedFault
from repro.faults import (
    FAULT_POINTS,
    TAMPER_POINTS,
    FaultPlan,
    engaged,
)


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    """Every test starts and ends with no plan installed."""
    faults.uninstall()
    yield
    faults.uninstall()


# -- arming --------------------------------------------------------------


def test_arm_rejects_unknown_point():
    with pytest.raises(ConfigError, match="unknown fault point"):
        FaultPlan().arm("no.such.point")


def test_arm_rejects_negative_indices():
    with pytest.raises(ConfigError, match="must be >= 0"):
        FaultPlan().arm("workers.perform", at=-1)


def test_tamper_points_are_registered():
    assert TAMPER_POINTS <= set(FAULT_POINTS)


def test_arm_random_is_seed_deterministic():
    schedules = []
    for _ in range(2):
        plan = FaultPlan(seed=7)
        rules = plan.arm_random(5)
        schedules.append([(r.point, sorted(r.at)) for r in rules])
    assert schedules[0] == schedules[1]


# -- firing --------------------------------------------------------------


def test_trip_is_noop_without_plan():
    faults.trip("workers.perform")  # must not raise


def test_trip_fires_only_at_armed_indices():
    plan = FaultPlan()
    plan.arm("workers.perform", at=[1, 3])
    with engaged(plan):
        faults.trip("workers.perform")  # hit 0
        with pytest.raises(InjectedFault) as excinfo:
            faults.trip("workers.perform")  # hit 1
        assert excinfo.value.point == "workers.perform"
        assert excinfo.value.hit == 1
        faults.trip("workers.perform")  # hit 2
        with pytest.raises(InjectedFault):
            faults.trip("workers.perform")  # hit 3
        faults.trip("workers.perform")  # hit 4
    assert plan.injected == 2
    assert plan.hits("workers.perform") == 5


def test_times_caps_firings_with_at_none():
    plan = FaultPlan()
    plan.arm("serving.replay", at=None, times=2)
    fired = 0
    with engaged(plan):
        for _ in range(5):
            try:
                faults.trip("serving.replay")
            except InjectedFault:
                fired += 1
    assert fired == 2


def test_tamper_returns_event_instead_of_raising():
    plan = FaultPlan()
    plan.arm("persist.publish.torn", at=1)
    with engaged(plan):
        assert faults.tamper("persist.publish.torn") is None
        event = faults.tamper("persist.publish.torn")
        assert event is not None and event.hit == 1
        assert faults.tamper("persist.publish.torn") is None


# -- recovery bookkeeping ------------------------------------------------


def test_recovered_credits_oldest_unrecovered_event():
    plan = FaultPlan()
    plan.arm("workers.perform", at=[0, 1])
    with engaged(plan):
        for _ in range(2):
            with pytest.raises(InjectedFault):
                faults.trip("workers.perform")
        faults.recovered("workers.perform", "first restart")
    assert len(plan.unrecovered()) == 1
    assert plan.unrecovered()[0].hit == 1
    assert plan.events[0].note == "first restart"


def test_recovered_credits_the_event_of_a_given_hit():
    """Recovery paths that finish out of firing order credit the event
    their error carries, and only an unrecovered one."""
    plan = FaultPlan()
    plan.arm("workers.perform", at=[0, 1])
    with engaged(plan):
        for _ in range(2):
            with pytest.raises(InjectedFault):
                faults.trip("workers.perform")
        faults.recovered("workers.perform", "second restart", hit=1)
        assert not plan.note_recovered("workers.perform", hit=1)
    assert [e.hit for e in plan.unrecovered()] == [0]
    assert plan.events[1].note == "second restart"


def test_recovered_matching_credits_prefix():
    plan = FaultPlan()
    plan.arm("persist.publish.torn")
    plan.arm("persist.restore")
    with engaged(plan):
        faults.tamper("persist.publish.torn")
        with pytest.raises(InjectedFault):
            faults.trip("persist.restore")
        assert plan.note_recovered_matching("persist.", "walked back") == 2
    assert plan.unrecovered() == []


def test_summary_accounts_per_point():
    plan = FaultPlan(seed=3)
    plan.arm("workers.perform", at=[0, 1])
    with engaged(plan):
        for _ in range(2):
            with pytest.raises(InjectedFault):
                faults.trip("workers.perform")
        faults.recovered("workers.perform")
    summary = plan.summary()
    assert summary["seed"] == 3
    assert summary["injected"] == 2
    assert summary["recovered"] == 1
    assert summary["per_point"] == {"workers.perform": 2}
    assert [e["hit"] for e in summary["events"]] == [0, 1]


# -- installation --------------------------------------------------------


def test_nested_install_of_other_plan_is_refused():
    plan = FaultPlan()
    with engaged(plan):
        with pytest.raises(ConfigError, match="already installed"):
            faults.install(FaultPlan())
        faults.install(plan)  # re-installing the same plan is fine
    assert faults.active() is None


def test_engaged_uninstalls_on_error():
    plan = FaultPlan()
    plan.arm("workers.perform")
    with pytest.raises(InjectedFault):
        with engaged(plan):
            faults.trip("workers.perform")
    assert faults.active() is None
