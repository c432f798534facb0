"""Every clock event method is ``charge(CostCharge(<its counters>))``.

A clock prices each event shape in one method of its own instead of
building a record per event; every reading and counter must stay what
the general entry point gives for the same counters -- serially, on
the lanes of a parallel phase, and (counters only) on a wall clock.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simtime.charge import CostCharge
from repro.simtime.clock import Clock, SimClock, WallClock
from repro.simtime.costs import CostConstants
from repro.simtime.model import CostModel

# Distinct fractional-nanosecond prices at a non-unit scale: a counter
# priced at another counter's price, or dropped, shows in the reading.
_MODEL = CostModel(
    CostConstants(
        scan_ns_per_element=0.011,
        crack_ns_per_element=0.013,
        sort_ns_per_element_log=0.017,
        merge_ns_per_element=0.019,
        materialize_ns_per_element=0.023,
        probe_ns_per_comparison=0.1,
        seek_ns=0.3,
        piece_overhead_ns=0.5,
        query_overhead_ns=0.7,
        crack_overhead_ns=1.1,
    ),
    scale=3.0,
)

_N = st.integers(0, 10**9)
_COUNT = st.integers(0, 5)


def _steps(n: int) -> int:
    return max(1, n.bit_length())


#: Every event method by name: a strategy for its arguments and the
#: record ``charge`` takes for the same event.
EVENTS = {
    "charge_query": (st.tuples(), lambda: CostCharge(queries=1)),
    "charge_probes": (
        st.tuples(_N, _COUNT),
        lambda n, count: CostCharge(
            comparisons=_steps(n) * count, seeks=count
        ),
    ),
    "charge_warm_select": (
        st.tuples(_N),
        lambda n: CostCharge(comparisons=2 * _steps(n), seeks=2, queries=1),
    ),
    "charge_crack": (
        st.tuples(_N, _COUNT),
        lambda elements, cracks: CostCharge(
            elements_cracked=elements, pieces_touched=1, cracks=cracks
        ),
    ),
    "charge_empty_crack": (st.tuples(), lambda: CostCharge(cracks=1)),
    "charge_materialize": (
        st.tuples(_N), lambda rows: CostCharge(elements_materialized=rows)
    ),
    "charge_scan": (
        st.tuples(_N, _N, _COUNT),
        lambda scanned, materialized, pieces: CostCharge(
            elements_scanned=scanned,
            elements_materialized=materialized,
            pieces_touched=pieces,
        ),
    ),
    "charge_sort": (
        st.tuples(_N, _COUNT),
        lambda elements, pieces: CostCharge(
            elements_sorted=elements, pieces_touched=pieces
        ),
    ),
    "charge_merge": (
        st.tuples(_N, _COUNT),
        lambda elements, pieces: CostCharge(
            elements_merged=elements, pieces_touched=pieces
        ),
    ),
    "charge_pending_merge": (
        st.tuples(_N, _N),
        lambda deletes, materialized: CostCharge(
            comparisons=max(1, deletes), elements_materialized=materialized
        ),
    ),
}

_STREAMS = st.lists(
    st.sampled_from(sorted(EVENTS)).flatmap(
        lambda name: st.tuples(st.just(name), EVENTS[name][0])
    ),
    max_size=12,
)


def _started() -> SimClock:
    clock = SimClock(_MODEL)
    clock.charge(CostCharge(elements_scanned=12345, queries=3))
    return clock


def _run(clock: Clock, stream, by_method: bool) -> None:
    for name, args in stream:
        if by_method:
            getattr(clock, name)(*args)
        else:
            clock.charge(EVENTS[name][1](*args))


def _delta(clock: Clock, before: CostCharge) -> CostCharge:
    """``clock.total_charge - before``, field by field."""
    total = clock.total_charge.as_dict()
    return CostCharge(
        **{name: total[name] - value for name, value in before.as_dict().items()}
    )


@pytest.mark.parametrize("name", sorted(EVENTS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_event_method_is_its_charge(name, data):
    """Serially, one event moves ``now`` and adds to ``total_charge``
    exactly what ``charge`` of its record does; a wall clock counts it
    the same and prices it at zero."""
    args = data.draw(EVENTS[name][0])
    record = EVENTS[name][1](*args)
    by_method, by_charge = _started(), _started()
    before = CostCharge()
    before += by_method.total_charge
    start = by_method._now
    getattr(by_method, name)(*args)
    by_charge.charge(record)
    assert by_method._now - start == _MODEL.picoseconds(record)
    assert by_method._now == by_charge._now
    assert repr(by_method.now()) == repr(by_charge.now())
    assert _delta(by_method, before) == record
    assert by_method.total_charge == by_charge.total_charge

    wall = WallClock()
    getattr(wall, name)(*args)
    assert wall.total_charge == record
    assert wall._now == 0


@settings(max_examples=50, deadline=None)
@given(_STREAMS, _STREAMS)
def test_event_methods_keep_lane_accounts(first, second):
    """Inside a parallel phase, on two named lanes whose events
    interleave: every lane, the elapsed maximum, the busy sum, the
    settled reading and the counters equal those of the same events
    passed to ``charge``."""
    accounts = []
    for by_method in (True, False):
        clock = _started()
        clock.begin_parallel()
        for i in range(max(len(first), len(second))):
            for lane, stream in enumerate((first, second)):
                clock.lane = lane
                _run(clock, stream[i : i + 1], by_method)
        account = clock.end_parallel()
        accounts.append(
            (
                account.lanes,
                account.elapsed_s,
                account.busy_s,
                clock._now,
                clock.total_charge,
            )
        )
    assert accounts[0] == accounts[1]


def test_a_wall_clock_defines_no_event_of_its_own():
    """``WallClock`` inherits every event and ``charge`` from
    :class:`Clock`; it owns only time: ``now``, ``sleep`` and the
    parallel phases."""
    assert not set(vars(WallClock)) & {*EVENTS, "charge"}
    assert {name for name in vars(Clock) if name.startswith("charge")} == {
        *EVENTS,
        "charge",
    }
