"""Property tests: PendingUpdates vs the exact NaivePending model.

The delta store's range lookups are binary searches over dtype-coerced
arrays; the reference model evaluates ``low <= v < high`` with exact
Python arithmetic.  Arbitrary interleavings of staging, peeking, and
consuming must agree between the two -- including at the adversarial
magnitudes where ``searchsorted`` used to diverge (int64 values beyond
2^53 probed with float bounds).  The store's probes take bounds
normalised into the column's domain, so every raw bound here goes
through ``normalise_range`` first, as a session's do.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.dtypes import (
    FLOAT64,
    INT32,
    INT64,
    ColumnType,
    coerce_array,
    normalise_bound,
    normalise_range,
)
from repro.storage.updates import PendingUpdates, cut_at
from tests.conftest import base_holding, planned_probe


def _probe(method, low, high) -> list:
    """``method`` (a store probe) over the normalised ``[low, high)``;
    an empty range probes nothing."""
    store = method.__self__
    keys = normalise_range(store._ctype.numpy_dtype, low, high)
    return [] if keys is None else method(*keys).tolist()


class NaivePending:
    """Exact reference model of one column's ``PendingUpdates``.

    Mirrors the real semantics observed through the public API:

    * staged values are coerced to the column dtype, like the real
      store's ``coerce_array`` call;
    * delete positions dedup against the first occurrence within a
      batch and against *currently staged* positions only -- a position
      whose pair was consumed by a ``take_*`` may be staged again;
    * every ``*_in_range`` uses exact ``low <= v < high`` on Python
      scalars (int/float comparison in Python is exact at any
      magnitude, unlike a float64-promoting searchsorted).
    """

    def __init__(self, ctype: ColumnType) -> None:
        self._ctype = ctype
        self._inserts: list = []
        self._deletes: list[tuple[int, object]] = []

    def _coerce(self, values: object) -> list:
        array = coerce_array(np.asarray(values), self._ctype)
        return [value.item() for value in array]

    # -- staging -------------------------------------------------------

    def stage_inserts(self, values: object) -> int:
        fresh = self._coerce(values)
        self._inserts.extend(fresh)
        return len(fresh)

    def stage_deletes(self, positions: object, values: object) -> int:
        pos = [int(p) for p in np.asarray(positions, dtype=np.int64)]
        vals = self._coerce(values)
        staged_now = {p for p, _ in self._deletes}
        seen_in_batch: set[int] = set()
        staged = 0
        for p, v in zip(pos, vals):
            if p in staged_now or p in seen_in_batch:
                continue
            seen_in_batch.add(p)
            self._deletes.append((p, v))
            staged += 1
        return staged

    # -- inspection ----------------------------------------------------

    @property
    def pending_insert_count(self) -> int:
        return len(self._inserts)

    @property
    def pending_delete_count(self) -> int:
        return len(self._deletes)

    def inserts_in_range(self, low: float, high: float) -> list:
        return sorted(v for v in self._inserts if low <= v < high)

    def deletes_in_range(self, low: float, high: float) -> list:
        return sorted(v for _, v in self._deletes if low <= v < high)

    def delete_positions_in_range(self, low: float, high: float) -> set[int]:
        return {p for p, v in self._deletes if low <= v < high}

    # -- consumption ---------------------------------------------------

    def take_inserts_in_range(self, low: float, high: float) -> list:
        taken = self.inserts_in_range(low, high)
        keep = [v for v in self._inserts if not low <= v < high]
        self._inserts = keep
        return taken

    def take_deletes_in_range(self, low: float, high: float) -> list:
        taken = self.deletes_in_range(low, high)
        self._deletes = [
            (p, v) for p, v in self._deletes if not low <= v < high
        ]
        return taken

    def clear(self) -> None:
        """Drop all pending entries (mirrors ``PendingUpdates.clear``).

        Every staged position becomes restageable again: dedup is
        against *currently staged* positions only.
        """
        self._inserts = []
        self._deletes = []


# Value pools per dtype, salted with the magnitudes that break a
# float64-promoting binary search: 2^53 neighbours (where float64 loses
# integer exactness) and ~6e17 (the original fuzz failure's scale).
_INT64_POOL = [
    0,
    1,
    -1,
    2**53 - 1,
    2**53,
    2**53 + 1,
    -(2**53) - 1,
    629_131_755_568_097_452,
    -629_131_755_568_097_452,
    629_131_755_568_097_453,
    np.iinfo(np.int64).max,
    np.iinfo(np.int64).min,
]
_INT32_POOL = [0, 1, -1, 2**31 - 1, -(2**31), 123_456_789]
_FLOAT_POOL = [
    0.0,
    -0.0,
    1.5,
    -1.5,
    6.291317555680974e17,
    np.nextafter(1.0, 2.0),
    5e-324,  # smallest subnormal
    1e308,
]

_BOUND_POOL = [
    float(v)
    for v in (
        0.0,
        -0.0,
        0.5,
        2.0**53,
        float(2**53 + 2),
        6.291317555680974e17,
        -6.291317555680974e17,
        1.649365601384583e17,
        np.nextafter(6.291317555680974e17, 0.0),
        2.0**63,
        -(2.0**63),
        1e308,
        float("nan"),
    )
]


def _values(pool: list) -> st.SearchStrategy:
    return st.lists(st.sampled_from(pool), min_size=0, max_size=6)


def _ops(pool: list) -> st.SearchStrategy:
    bound = st.sampled_from(_BOUND_POOL)
    bounds = st.tuples(bound, bound)
    return st.lists(
        st.one_of(
            st.tuples(st.just("insert"), _values(pool)),
            st.tuples(st.just("delete"), _values(pool)),
            st.tuples(st.just("peek_ins"), bounds),
            st.tuples(st.just("peek_del"), bounds),
            st.tuples(st.just("take_ins"), bounds),
            st.tuples(st.just("take_del"), bounds),
            st.tuples(st.just("clear"), st.just(None)),
        ),
        min_size=1,
        max_size=24,
    )


#: Delete positions cycle through a small window so restaging a
#: previously-consumed position actually happens.
_DELETE_WINDOW = 7


def _base(dtype, ops) -> np.ndarray:
    """The base rows the ops' deletes name: a position holds the first
    value a delete payload brings to it (a row has one value, so later
    deletes of that position stage it again)."""
    rows: dict[int, object] = {}
    position = 0
    for kind, payload in ops:
        if kind == "delete":
            for value in payload:
                rows.setdefault(position % _DELETE_WINDOW, value)
                position += 1
    return base_holding(rows, dtype)


def _replay(ctype, dtype, ops) -> None:
    base = _base(dtype, ops)
    real = PendingUpdates(ctype, base=base)
    naive = NaivePending(ctype)
    next_position = 0
    for kind, payload in ops:
        if kind == "insert":
            values = np.asarray(payload, dtype=dtype)
            assert real.stage_inserts(values) == naive.stage_inserts(values)
        elif kind == "delete":
            positions = np.arange(
                next_position, next_position + len(payload), dtype=np.int64
            ) % _DELETE_WINDOW
            next_position += len(payload)
            values = base[positions]
            assert real.stage_deletes(positions, values) == (
                naive.stage_deletes(positions, values)
            )
        elif kind == "clear":
            real.clear()
            naive.clear()
        else:
            low, high = payload
            if kind == "peek_ins":
                got = _probe(real.inserts_in_range, low, high)
                want = naive.inserts_in_range(low, high)
            elif kind == "peek_del":
                got = _probe(real.deletes_in_range, low, high)
                want = naive.deletes_in_range(low, high)
            elif kind == "take_ins":
                got = _probe(real.take_inserts_in_range, low, high)
                want = naive.take_inserts_in_range(low, high)
            else:
                got = _probe(real.take_deletes_in_range, low, high)
                want = naive.take_deletes_in_range(low, high)
            assert got == want, (kind, low, high)
        assert real.pending_insert_count == naive.pending_insert_count
        assert real.pending_delete_count == naive.pending_delete_count
        # No position is staged twice, and positions stay aligned
        # with their values.
        positions = real.delete_positions.tolist()
        assert len(set(positions)) == len(positions)
        assert len(positions) == len(real.deleted_values)
        assert (base[real.delete_positions] == real.deleted_values).all()


@settings(max_examples=60, deadline=None)
@given(ops=_ops(_INT64_POOL))
def test_interleavings_match_naive_int64(ops) -> None:
    _replay(INT64, np.int64, ops)


@settings(max_examples=40, deadline=None)
@given(ops=_ops(_INT32_POOL))
def test_interleavings_match_naive_int32(ops) -> None:
    _replay(INT32, np.int32, ops)


@settings(max_examples=40, deadline=None)
@given(ops=_ops(_FLOAT_POOL))
def test_interleavings_match_naive_float64(ops) -> None:
    _replay(FLOAT64, np.float64, ops)


# -- regression anchors for exact bounds beyond 2^53 -------------------


def test_int64_store_float_bounds_beyond_2_53() -> None:
    """The original fuzz failure: searchsorted's float64 promotion
    rounded -629131755568097452 onto the low bound and returned it
    from an interval it is not in."""
    pending = PendingUpdates(
        INT64, base=base_holding({5: -629_131_755_568_097_452})
    )
    pending.stage_deletes([5], [-629_131_755_568_097_452])
    got = _probe(
        pending.deletes_in_range, -6.291317555680974e17, 1.649365601384583e17
    )
    assert got == []


def test_exact_edges_at_2_53_neighbours() -> None:
    pending = PendingUpdates(INT64, base=base_holding({}))
    pending.stage_inserts([2**53, 2**53 + 1, 2**53 - 1])
    # float(2^53) == 2^53 exactly: half-open [2^53, 2^53+2) keeps the
    # first two, and 2^53+1 must not be lost to rounding.
    got = _probe(pending.inserts_in_range, 2.0**53, float(2**53 + 2))
    assert got == [2**53, 2**53 + 1]


def test_float_store_keeps_fractional_bounds() -> None:
    pending = PendingUpdates(FLOAT64, base=base_holding({}, np.float64))
    pending.stage_inserts([5.25, 5.75, 6.0])
    assert _probe(pending.inserts_in_range, 5.5, 6.0) == [5.75]


def test_python_int_bounds_stay_exact() -> None:
    pending = PendingUpdates(INT64, base=base_holding({}))
    pending.stage_inserts([2**53 + 1])
    assert list(pending.inserts_in_range(2**53 + 1, 2**53 + 2)) == [
        2**53 + 1
    ]
    assert list(pending.inserts_in_range(2**53 + 2, 2**62)) == []


def test_take_deletes_keeps_positions_aligned() -> None:
    pending = PendingUpdates(
        INT64, base=base_holding({10: 100, 11: 200, 12: 300})
    )
    pending.stage_deletes([10, 11, 12], [100, 200, 300])
    taken = pending.take_deletes_in_range(150, 250)
    assert list(taken) == [200]
    assert list(pending.delete_positions) == [10, 12]
    # Position 11's pair was consumed: restaging it must succeed,
    # while 10 and 12 are still staged and dedup away.
    assert pending.stage_deletes([10, 11, 12], [100, 200, 300]) == 1
    assert list(pending.deletes_in_range(0, 1000)) == [100, 200, 300]
    assert list(pending.delete_positions) == [10, 11, 12]


# -- regression anchors for the NaN-high-bound fix ---------------------
#
# A NaN bound's "first element >= NaN" is the end of the store, which
# is the empty range as a *low* cut but selected the whole tail as a
# range's *high* cut: peeks returned every value >= low and take_*
# physically consumed the store.  A NaN range is empty now, decided
# once by the normaliser.  Found by the differential audit of
# clear/drain/restage interleavings.


def test_nan_high_bound_takes_nothing_int32() -> None:
    values = [-(2**31), -(2**31), -1, 200]
    pending = PendingUpdates(INT32, base=np.array(values, dtype=np.int32))
    pending.stage_deletes([0, 1, 2, 3], values)
    taken = _probe(pending.take_deletes_in_range, -(2.0**63), float("nan"))
    assert taken == []
    assert pending.pending_delete_count == 4
    assert len(pending.delete_positions) == 4


def test_nan_high_bound_peeks_nothing_int64() -> None:
    pending = PendingUpdates(INT64, base=base_holding({}))
    pending.stage_inserts([2**53 + 1, 629_131_755_568_097_452])
    assert _probe(pending.inserts_in_range, 200.0, float("nan")) == []
    assert pending.pending_insert_count == 2


def test_nan_bounds_take_nothing_float64() -> None:
    pending = PendingUpdates(FLOAT64, base=base_holding({}, np.float64))
    pending.stage_inserts([1e308])
    take = pending.take_inserts_in_range
    assert _probe(take, -(2.0**63), float("nan")) == []
    assert _probe(take, float("nan"), 1e309) == []
    assert pending.pending_insert_count == 1


def test_pending_window_nan_bounds_match_sequential() -> None:
    pending = PendingUpdates(INT64, base=base_holding({7: 25}))
    pending.stage_inserts([10, 20, 30])
    pending.stage_deletes([7], [25])
    lows = [0.0, float("nan"), 15.0]
    highs = [float("nan"), 100.0, 100.0]
    window = planned_probe(pending, zip(lows, highs))
    for i, (low, high) in enumerate(zip(lows, highs)):
        seq_ins = _probe(pending.inserts_in_range, low, high)
        seq_del = _probe(pending.deletes_in_range, low, high)
        assert window._ins_hi[i] - window._ins_lo[i] == len(seq_ins)
        assert window._del_hi[i] - window._del_lo[i] == len(seq_del)
    assert window.overlaps == [False, False, True]


def test_clear_makes_consumed_positions_restageable() -> None:
    pending = PendingUpdates(INT64, base=base_holding({1: 10, 2: 20}))
    naive = NaivePending(INT64)
    for store in (pending, naive):
        store.stage_deletes([1, 2], [10, 20])
        store.clear()
    assert pending.pending_insert_count == 0
    assert pending.pending_delete_count == 0
    # After clear every position is restageable, exactly once.
    assert pending.stage_deletes([1, 2, 1], [10, 20, 10]) == (
        naive.stage_deletes([1, 2, 1], [10, 20, 10])
    )
    assert list(pending.deletes_in_range(0, 100)) == (
        naive.deletes_in_range(0, 100)
    )


def test_pending_window_agrees_with_sequential_beyond_2_53() -> None:
    pending = PendingUpdates(
        INT64, base=base_holding({3: -629_131_755_568_097_452})
    )
    pending.stage_inserts(
        [629_131_755_568_097_452, 629_131_755_568_097_453, 42]
    )
    pending.stage_deletes([3], [-629_131_755_568_097_452])
    lows = [-6.291317555680974e17, 0.0, 6.291317555680974e17]
    highs = [1.649365601384583e17, 1e18, 6.29131755568097472e17]
    window = planned_probe(pending, zip(lows, highs))
    for i, (low, high) in enumerate(zip(lows, highs)):
        seq_ins = _probe(pending.inserts_in_range, low, high)
        seq_del = _probe(pending.deletes_in_range, low, high)
        assert window._ins_hi[i] - window._ins_lo[i] == len(seq_ins)
        assert window._del_hi[i] - window._del_lo[i] == len(seq_del)
        assert bool(window.overlaps[i]) == bool(
            len(seq_ins) or len(seq_del)
        )


# -- a bound's key cuts every store like the exact comparison ----------
#
# The normaliser turns any bound a caller can hand over into a key in
# the store's domain; ``cut_at`` with that key must land where exact
# ``v >= bound`` comparisons do.

_CUT_BOUNDS = [
    float("nan"),
    float("inf"),
    float("-inf"),
    2.0**63,
    -(2.0**63),
    float(np.nextafter(2.0**63, 0.0)),
    2.0**53,
    float(2**53 + 2),
    0.5,
    -0.5,
    2.0**31,
    # Below 2^31 but ceiling onto it: above every int32.
    2.0**31 - 0.5,
    float(2**31 - 1) + 0.25,
    -(2.0**31) - 0.5,
    1e308,
    -1e308,
    # Python ints, inside and beyond int64 (and beyond float range).
    0,
    2**31 - 1,
    2**31,
    -(2**31) - 1,
    2**53 - 1,
    2**53 + 1,
    -(2**53) - 1,
    2**63 - 1,
    2**63,
    -(2**63),
    -(2**63) - 1,
    2**64,
    -(2**70),
    10**400,
    -(10**400),
    True,
    # numpy scalars of every kind.
    np.int32(-1),
    np.int64(2**53 + 1),
    np.int64(np.iinfo(np.int64).max),
    np.uint8(200),
    np.uint64(2**53 + 1),
    np.uint64(2**63 - 1),
    np.uint64(2**63),
    np.uint64(2**64 - 1),
    np.float32(1.5),
    np.float64(2.0**53),
    np.float64("nan"),
]

_FLOAT_STORE_POOL = _FLOAT_POOL + [
    2.0**53,
    float(2**53 + 2),
    2.0**63,
    -(2.0**63),
    float("inf"),
    float("-inf"),
]


def _exact_cut(store: np.ndarray, bound) -> int:
    """First index whose value is >= bound, by exact Python comparison."""
    if isinstance(bound, np.floating):
        bound = float(bound)
    elif isinstance(bound, (np.integer, bool)):
        bound = int(bound)
    return sum(1 for v in store.tolist() if not v >= bound)


def _key_cut(store: np.ndarray, bound) -> int:
    """Where ``bound``'s key cuts ``store`` -- the end for NaN, which
    no value reaches."""
    key = normalise_bound(store.dtype, bound)
    return len(store) if key is None else cut_at(store, key)


def _check_cut_forms(store: np.ndarray, bound) -> None:
    assert _key_cut(store, bound) == _exact_cut(store, bound), bound


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.sampled_from(_INT64_POOL), max_size=8),
    bound=st.sampled_from(_CUT_BOUNDS),
)
def test_cut_forms_agree_int64(values, bound) -> None:
    _check_cut_forms(np.sort(np.asarray(values, dtype=np.int64)), bound)


@settings(max_examples=120, deadline=None)
@given(
    values=st.lists(st.sampled_from(_INT32_POOL), max_size=8),
    bound=st.sampled_from(_CUT_BOUNDS),
)
def test_cut_forms_agree_int32(values, bound) -> None:
    _check_cut_forms(np.sort(np.asarray(values, dtype=np.int32)), bound)


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.sampled_from(_FLOAT_STORE_POOL), max_size=8),
    bound=st.sampled_from(_CUT_BOUNDS),
)
def test_cut_forms_agree_float64(values, bound) -> None:
    _check_cut_forms(np.sort(np.asarray(values, dtype=np.float64)), bound)


# -- in_range: the once-normalised two-store probe == the two probes ---


def _check_in_range(ctype, dtype, inserts, deletes, low, high) -> None:
    deletes = np.asarray(deletes, dtype=dtype)
    store = PendingUpdates(ctype, base=deletes)
    store.stage_inserts(np.asarray(inserts, dtype=dtype))
    store.stage_deletes(np.arange(len(deletes)), deletes)
    keys = normalise_range(np.dtype(dtype), low, high)
    if keys is None:
        return
    got_inserts, got_deletes = store.in_range(*keys)
    assert got_inserts.dtype == got_deletes.dtype == dtype
    assert (got_inserts.tolist(), got_deletes.tolist()) == (
        store.inserts_in_range(*keys).tolist(),
        store.deletes_in_range(*keys).tolist(),
    ), (low, high)


_RANGE_BOUND = st.sampled_from(_CUT_BOUNDS)


@settings(max_examples=200, deadline=None)
@given(
    inserts=st.lists(st.sampled_from(_INT64_POOL), max_size=8),
    deletes=st.lists(st.sampled_from(_INT64_POOL), max_size=8),
    low=_RANGE_BOUND,
    high=_RANGE_BOUND,
)
def test_in_range_is_both_range_probes_int64(
    inserts, deletes, low, high
) -> None:
    _check_in_range(INT64, np.int64, inserts, deletes, low, high)


@settings(max_examples=120, deadline=None)
@given(
    inserts=st.lists(st.sampled_from(_INT32_POOL), max_size=8),
    deletes=st.lists(st.sampled_from(_INT32_POOL), max_size=8),
    low=_RANGE_BOUND,
    high=_RANGE_BOUND,
)
def test_in_range_is_both_range_probes_int32(
    inserts, deletes, low, high
) -> None:
    _check_in_range(INT32, np.int32, inserts, deletes, low, high)


@settings(max_examples=200, deadline=None)
@given(
    inserts=st.lists(st.sampled_from(_FLOAT_STORE_POOL), max_size=8),
    deletes=st.lists(st.sampled_from(_FLOAT_STORE_POOL), max_size=8),
    low=_RANGE_BOUND,
    high=_RANGE_BOUND,
)
def test_in_range_is_both_range_probes_float64(
    inserts, deletes, low, high
) -> None:
    _check_in_range(FLOAT64, np.float64, inserts, deletes, low, high)


def test_narrow_store_is_probed_without_promotion() -> None:
    """A key is a Python int inside the store's dtype, so probing an
    int32 store never copies it into int64; a bound past the top is
    the end of the store."""
    int32 = np.dtype(np.int32)
    assert normalise_bound(int32, 7.5) == 8
    assert normalise_bound(int32, 2.0**31) == 2**31  # the top
    assert normalise_bound(int32, 2.0**31 - 0.5) == 2**31
    assert normalise_bound(int32, -(2.0**40)) == -(2**31)
    pending = PendingUpdates(INT32, base=base_holding({}, np.int32))
    pending.stage_inserts([-5, 8, 2**31 - 1])
    inserts, deletes = pending.in_range(8, 2**31)
    assert inserts.dtype == deletes.dtype == int32
    assert inserts.tolist() == [8, 2**31 - 1]


# -- regression anchors for unsigned / out-of-range integer bounds ------
#
# ``int64_store.searchsorted(uint64_key)`` promotes both sides to
# float64, and a Python int >= 2^63 arrives as uint64 the same way; the
# normaliser makes every integer bound a Python int in the dtype's range.


def test_uint64_bound_beyond_2_53_stays_exact() -> None:
    store = np.array([2**53, 2**53 + 1, 2**53 + 2], dtype=np.int64)
    assert _key_cut(store, np.uint64(2**53 + 1)) == 1


def test_integer_bounds_at_int64_max_clamp_exactly() -> None:
    store = np.array([2**62, 2**63 - 2, 2**63 - 1], dtype=np.int64)
    assert _key_cut(store, 2**63) == 3
    assert _key_cut(store, np.uint64(2**63 - 1)) == 2
    assert _key_cut(store, np.uint64(2**63)) == 3
    pending = PendingUpdates(INT64, base=base_holding({}))
    pending.stage_inserts(store)
    probe = pending.inserts_in_range
    assert _probe(probe, 2**63 - 1, 2**63) == [2**63 - 1]
    assert _probe(probe, np.uint64(2**63 - 1), 2**64) == [2**63 - 1]


def test_float_bound_ceiling_past_int32_max_clamps_to_the_end() -> None:
    """2147483647.5 is below 2^31 but its ceiling is not an int32: the
    range check belongs after the ceil, or the key overflows (numpy 2)
    or wraps to -2^31 (numpy 1)."""
    top = 2**31 - 1
    store = np.array([-5, 0, top - 1, top], dtype=np.int32)
    assert _key_cut(store, 2147483647.5) == 4
    pending = PendingUpdates(INT32, base=base_holding({}, np.int32))
    pending.stage_inserts(store)
    probe = pending.inserts_in_range
    assert _probe(probe, 0, 2147483647.5) == [0, top - 1, top]
    assert _probe(probe, 2147483646.5, 2147483647.5) == [top]
    assert _probe(probe, 2147483647.5, 2.0**31) == []


def test_signed_bound_arrays_probe_a_narrow_store_without_promotion() -> None:
    """Integer bounds wider than an int32 store clamp to its ends: the
    keys stay inside int32, so the store is searched as it is."""
    store = np.array([-3, 0, 7, 7, 2**31 - 1], dtype=np.int32)
    bounds = [-3, 7, 2**31 - 1, -(2**40), np.int64(2**40)]
    assert [_key_cut(store, b) for b in bounds] == [0, 2, 4, 0, 5]


# -- stage_deletes dedup vs the np.isin model ---------------------------


class _IsinDeletes:
    """The dedup stage_deletes used to do: first-seen ``np.unique``
    inside the batch, ``np.isin`` against everything staged."""

    def __init__(self) -> None:
        self.positions = np.empty(0, dtype=np.int64)
        self.values = np.empty(0, dtype=np.int64)

    def stage(self, pos: np.ndarray, vals: np.ndarray) -> int:
        _, first_seen = np.unique(pos, return_index=True)
        keep = np.sort(first_seen)
        pos, vals = pos[keep], vals[keep]
        fresh = ~np.isin(pos, self.positions)
        pos, vals = pos[fresh], vals[fresh]
        order = np.argsort(vals, kind="stable")
        pos, vals = pos[order], vals[order]
        slots = np.searchsorted(self.values, vals, side="left")
        self.values = np.insert(self.values, slots, vals)
        self.positions = np.insert(self.positions, slots, pos)
        return len(pos)


def test_stage_deletes_dedup_matches_isin_model_at_10k_rows() -> None:
    rng = np.random.default_rng(16)
    # Few distinct values, so equal-value runs exercise the stable order.
    base = rng.integers(0, 500, size=60_000)
    pending = PendingUpdates(INT64, base=base)
    model = _IsinDeletes()
    first = rng.permutation(50_000)[:10_000].astype(np.int64)
    values = base[first]
    assert pending.stage_deletes(first, values) == model.stage(first, values)
    for size in (1, 2, 6, 16, 16, 300, 5_000, 20_000, 3, 16):
        fresh = rng.integers(0, 60_000, size=size)
        staged = rng.choice(model.positions, size=max(1, size // 3))
        batch = np.concatenate([fresh, staged, fresh[: size // 2]])
        rng.shuffle(batch)
        values = base[batch]
        assert pending.stage_deletes(batch, values) == model.stage(
            batch, values
        )
        assert np.array_equal(pending.delete_positions, model.positions)
        assert np.array_equal(pending.deleted_values, model.values)
        if size == 300:
            # Consumed positions become stageable again.
            taken = pending.take_deletes_in_range(100, 200)
            keep = (model.values < 100) | (model.values >= 200)
            assert len(taken) == np.count_nonzero(~keep)
            model.positions = model.positions[keep]
            model.values = model.values[keep]
    staged = model.positions[:16]
    assert pending.stage_deletes(staged, base[staged]) == 0


# -- PendingWindow (shared keys) vs per-query apply_pending -------------


def _window_vs_sequential(ctype, dtype, inserts, deletes, bounds) -> None:
    from repro.engine.operators import apply_pending
    from repro.simtime.accounting import WindowAccountant
    from repro.simtime.clock import SimClock
    from repro.storage.views import MaterializedResult

    deletes = np.asarray(deletes, dtype=dtype)
    pending = PendingUpdates(ctype, base=deletes)
    pending.stage_inserts(np.asarray(inserts, dtype=dtype))
    pending.stage_deletes(np.arange(len(deletes)), deletes)
    keys = [
        normalise_range(np.dtype(dtype), low, high) for low, high in bounds
    ]
    window = planned_probe(pending, bounds)
    assert window.active == pending.has_pending()
    sequential_clock, batch_clock = SimClock(), SimClock()
    accountant = WindowAccountant(batch_clock)
    for slot, pair in enumerate(keys):
        # Every delete is a base row, as the engine guarantees.
        base = MaterializedResult(deletes.copy())
        # An empty range never reaches the overlay.
        want = (
            base
            if pair is None
            else apply_pending(base, pending, *pair, sequential_clock)
        )
        got = base
        if window.active and window.overlaps[slot]:
            got = window.apply(slot, base, accountant)
        assert (got is base) == (want is base), pair
        assert got.values().tolist() == want.values().tolist(), pair
    accountant.finish()
    assert repr(batch_clock.now()) == repr(sequential_clock.now())
    assert batch_clock.total_charge == sequential_clock.total_charge


_WINDOW_BOUNDS = st.lists(
    st.tuples(st.sampled_from(_BOUND_POOL), st.sampled_from(_BOUND_POOL)),
    min_size=1,
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(
    inserts=_values(_INT64_POOL),
    deletes=_values(_INT64_POOL),
    bounds=_WINDOW_BOUNDS,
)
def test_pending_window_matches_apply_pending_int64(
    inserts, deletes, bounds
) -> None:
    _window_vs_sequential(INT64, np.int64, inserts, deletes, bounds)


@settings(max_examples=40, deadline=None)
@given(
    inserts=_values(_INT32_POOL),
    deletes=_values(_INT32_POOL),
    bounds=_WINDOW_BOUNDS,
)
def test_pending_window_matches_apply_pending_int32(
    inserts, deletes, bounds
) -> None:
    _window_vs_sequential(INT32, np.int32, inserts, deletes, bounds)


@settings(max_examples=40, deadline=None)
@given(
    inserts=_values(_FLOAT_POOL),
    deletes=_values(_FLOAT_POOL),
    bounds=_WINDOW_BOUNDS,
)
def test_pending_window_matches_apply_pending_float64(
    inserts, deletes, bounds
) -> None:
    _window_vs_sequential(FLOAT64, np.float64, inserts, deletes, bounds)
