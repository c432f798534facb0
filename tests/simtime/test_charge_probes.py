"""``SimClock.charge_probes(n, k)`` is ``k`` binary-search charges,
and ``SimClock.charge_query()`` is ``charge(CostCharge(queries=1))``.

The converged select prices its per-query overhead and its piece-map
probes in place instead of building a :class:`CostCharge` per event;
every reading the clock can give must stay bit-identical to the
per-event path.
"""

import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simtime.charge import CostCharge
from repro.simtime.clock import SimClock
from repro.simtime.costs import CostConstants
from repro.simtime.model import CostModel

# Constants whose products and sums round: a reordered or fused
# accumulation (``k * seconds``, probe + seek swapped) shows in the
# last bit.
_AWKWARD = CostConstants(
    probe_ns_per_comparison=0.1, seek_ns=0.3, query_overhead_ns=0.7
)

_EVENTS = st.lists(
    st.one_of(
        st.tuples(
            st.just("probes"), st.integers(0, 2**40), st.integers(1, 5)
        ),
        st.tuples(st.just("query"), st.just(0), st.just(0)),
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
                    clock.charge(CostCharge.for_binary_search(n))
        elif kind == "query":
            if in_place:
                clock.charge_query()
            else:
                clock.charge(CostCharge(queries=1))
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
    """Inside a parallel phase, from two threads: every lane, the
    elapsed maximum and the busy sum match the per-event clock's."""
    accounts = []
    for in_place in (True, False):
        clock = SimClock(CostModel(_AWKWARD))
        clock.charge(CostCharge(queries=3))
        clock.begin_parallel()
        workers = [
            threading.Thread(
                target=_replay,
                args=(
                    clock,
                    # A phase refuses restore_state; the model is shared.
                    [e for e in events if e[0] in ("probes", "query")],
                    in_place,
                ),
            )
            for events in (first, second)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
            assert not worker.is_alive()
        account = clock.end_parallel()
        accounts.append(
            (
                sorted(account.lanes.values()),
                account.elapsed_s,
                account.busy_s,
                clock.now(),
                clock.total_charge,
            )
        )
    assert accounts[0] == accounts[1]
