"""``SimClock.charge_probes(n, k)`` is ``k`` binary-search charges,
``SimClock.charge_query()`` is ``charge(CostCharge(queries=1))`` and
``SimClock.charge_pending_merge(d, m)`` is one comparison per pending
delete (at least one) plus ``m`` materialized rows.

The converged select prices its per-query overhead, its piece-map
probes and a pending-row merge in place instead of building a
:class:`CostCharge` per event; every reading the clock can give must
stay bit-identical to the per-event path, also after the clock's
state is restored or its model replaced between events.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simtime.charge import CostCharge
from repro.simtime.clock import SimClock
from repro.simtime.costs import CostConstants
from repro.simtime.model import CostModel

# Fractional-nanosecond constants, each a picosecond price of its own:
# a probe priced without its seek, or a query priced as a probe,
# shows in the reading.
_AWKWARD = CostConstants(
    probe_ns_per_comparison=0.1, seek_ns=0.3, query_overhead_ns=0.7
)

_EVENTS = st.lists(
    st.one_of(
        st.tuples(
            st.just("probes"), st.integers(0, 2**40), st.integers(1, 5)
        ),
        st.tuples(st.just("query"), st.just(0), st.just(0)),
        st.tuples(
            st.just("merge"), st.integers(0, 10**6), st.integers(0, 10**6)
        ),
        st.tuples(st.just("restore"), st.just(0), st.just(0)),
        st.tuples(st.just("remodel"), st.just(0), st.just(0)),
    ),
    max_size=30,
)


def _replay(clock: SimClock, events, in_place: bool) -> None:
    for kind, n, count in events:
        if kind == "probes":
            if in_place:
                clock.charge_probes(n, count)
            else:
                for _ in range(count):
                    clock.charge(
                        CostCharge(
                            comparisons=max(1, n.bit_length()), seeks=1
                        )
                    )
        elif kind == "query":
            if in_place:
                clock.charge_query()
            else:
                clock.charge(CostCharge(queries=1))
        elif kind == "merge":
            if in_place:
                clock.charge_pending_merge(n, count)
            else:
                clock.charge(
                    CostCharge(
                        comparisons=max(1, n), elements_materialized=count
                    )
                )
        elif kind == "restore":
            # Replaces ``total_charge`` with a fresh object.
            clock.restore_state(clock.state_dict())
        else:
            clock.model = CostModel(
                CostConstants(
                    probe_ns_per_comparison=clock.now() + 0.3, seek_ns=1.1
                )
            )


@settings(max_examples=200, deadline=None)
@given(_EVENTS)
def test_in_place_probes_equal_per_event_charges(events):
    in_place, per_event = SimClock(CostModel(_AWKWARD)), SimClock(
        CostModel(_AWKWARD)
    )
    _replay(in_place, events, in_place=True)
    _replay(per_event, events, in_place=False)
    assert in_place.now() == per_event.now()
    assert in_place.total_charge == per_event.total_charge
    assert in_place.state_dict() == per_event.state_dict()


@settings(max_examples=50, deadline=None)
@given(_EVENTS, _EVENTS)
def test_in_place_probes_keep_lane_accounts(first, second):
    """Inside a parallel phase, on two named lanes whose events
    interleave: every lane, the elapsed maximum, the busy sum and
    ``now()`` on each lane match the per-event clock's."""
    # A phase refuses restore_state; the model is shared.
    streams = [
        [e for e in events if e[0] in ("probes", "query", "merge")]
        for events in (first, second)
    ]
    accounts = []
    for in_place in (True, False):
        clock = SimClock(CostModel(_AWKWARD))
        clock.charge(CostCharge(queries=3))
        clock.begin_parallel()
        readings = []
        for i in range(max(map(len, streams))):
            for lane, stream in enumerate(streams):
                clock.lane = lane
                _replay(clock, stream[i : i + 1], in_place)
                readings.append(clock.now())
        account = clock.end_parallel()
        accounts.append(
            (
                account.lanes,
                readings,
                account.elapsed_s,
                account.busy_s,
                clock.now(),
                clock.total_charge,
            )
        )
    assert accounts[0] == accounts[1]
