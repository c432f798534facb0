"""The window accountant's pinned names: each forwards onto its clock's
event method, a window's reading does not depend on its event order,
and ``SimClock.settle_batch`` still guards its clock."""

from __future__ import annotations

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TINY
from repro.errors import ConfigError
from repro.simtime.accounting import WindowAccountant
from repro.simtime.charge import CostCharge
from repro.simtime.clock import SimClock
from repro.simtime.model import PS_PER_S


def _charged_clock() -> SimClock:
    clock = SimClock()
    # A non-zero start.
    clock.charge(CostCharge(elements_scanned=12345, elements_materialized=678))
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
    accountant.finish()


def _probe(n: int) -> CostCharge:
    return CostCharge(comparisons=max(1, n.bit_length()), seeks=1)


def _sequential_reference(clock: SimClock) -> None:
    """The exact charge stream `_drive` stands for, one record at a
    time through the clock's general entry point."""
    clock.charge(CostCharge(queries=1))
    clock.charge(_probe(17))
    clock.charge(_probe(33))
    clock.charge(_probe(33))
    clock.charge(CostCharge(queries=1))
    clock.charge(_probe(65))
    clock.charge(_probe(65))
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
    clock.charge(CostCharge(comparisons=1, elements_materialized=55))
    clock.charge(CostCharge(comparisons=9, elements_materialized=200))


def test_window_accountant_is_bit_identical_to_per_event_charging():
    reference = _charged_clock()
    _sequential_reference(reference)

    clock = _charged_clock()
    _drive(WindowAccountant(clock))
    assert clock._now == reference._now
    assert repr(clock.now()) == repr(reference.now())
    assert clock.total_charge == reference.total_charge


def test_settle_batch_rejects_backwards_time_and_parallel_phases():
    clock = SimClock()
    clock.sleep(5.0)
    nothing = (0,) * 8
    with pytest.raises(ConfigError):
        clock.settle_batch(1 * PS_PER_S, *nothing)
    clock.begin_parallel()
    with pytest.raises(ConfigError):
        clock.settle_batch(10 * PS_PER_S, *nothing)
    clock.end_parallel()
    # scanned, cracked, materialized, comparisons, seeks, pieces,
    # queries, cracks
    clock.settle_batch(6 * PS_PER_S, 1, 2, 3, 4, 5, 6, 7, 8)
    assert clock.now() == 6.0
    assert clock.total_charge == CostCharge(
        elements_scanned=1, elements_cracked=2, elements_materialized=3,
        comparisons=4, seeks=5, pieces_touched=6, queries=7, cracks=8,
    )


#: Every accountant event by method name: its argument count and the
#: ``CostCharge`` records that per-event charging would make for it.
_EVENTS = {
    "charge_query": (0, lambda: [CostCharge(queries=1)]),
    "charge_binary": (1, lambda n: [_probe(n)]),
    "charge_binary_pair": (1, lambda n: [_probe(n)] * 2),
    "charge_warm_select": (
        1, lambda n: [CostCharge(queries=1)] + [_probe(n)] * 2
    ),
    "charge_scan_query": (
        2,
        lambda s, m: [
            CostCharge(queries=1),
            CostCharge(elements_scanned=s, elements_materialized=m),
        ],
    ),
    "charge_crack": (
        2,
        lambda size, cracks: [
            CostCharge(
                elements_cracked=size, pieces_touched=1, cracks=cracks
            )
        ],
    ),
    "charge_empty_crack": (0, lambda: [CostCharge(cracks=1)]),
    "charge_materialize": (
        1, lambda rows: [CostCharge(elements_materialized=rows)]
    ),
    "charge_scan": (
        2,
        lambda s, m: [
            CostCharge(elements_scanned=s, elements_materialized=m)
        ],
    ),
    "charge_pending_merge": (
        2,
        lambda d, m: [
            CostCharge(comparisons=max(1, d), elements_materialized=m)
        ],
    ),
}

_WINDOWS = st.lists(
    st.sampled_from(sorted(_EVENTS)).flatmap(
        lambda name: st.tuples(
            st.just(name),
            st.tuples(*[st.integers(0, 10**6)] * _EVENTS[name][0]),
        )
    ),
    min_size=1,
    max_size=8,
)


def _settle(window) -> SimClock:
    """A tiny-scale clock with a non-zero start after ``window``'s
    events went through one accountant."""
    clock = SimClock(TINY.cost_model())
    clock.charge(CostCharge(elements_scanned=12345, elements_materialized=678))
    accountant = WindowAccountant(clock)
    for name, args in window:
        getattr(accountant, name)(*args)
    accountant.finish()
    return clock


@settings(max_examples=200, deadline=None)
@given(_WINDOWS, st.data())
def test_any_order_of_a_window_settles_to_its_priced_sum(window, data):
    clock = _settle(window)
    reordered = _settle(data.draw(st.permutations(window)))
    assert reordered.now() == clock.now()
    assert reordered.total_charge == clock.total_charge

    start = _settle([])
    charges = [
        charge for name, args in window for charge in _EVENTS[name][1](*args)
    ]
    model = start.model
    assert clock._now == start._now + sum(map(model.picoseconds, charges))
    total = start.total_charge
    for charge in charges:
        total += charge
    assert clock.total_charge == total


def test_every_order_of_six_events_settles_to_one_reading():
    """All 720 orderings of one window settle to one ``now``."""
    window = [
        ("charge_query", ()),
        ("charge_warm_select", (65,)),
        ("charge_crack", (1000, 1)),
        ("charge_crack", (512, 2)),
        ("charge_materialize", (4096,)),
        ("charge_pending_merge", (9, 200)),
    ]
    readings = {_settle(order).now() for order in permutations(window)}
    assert len(readings) == 1, sorted(readings)
