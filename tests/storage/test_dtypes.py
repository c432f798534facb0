"""Unit tests for the column type system."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.storage.dtypes import (
    FLOAT64,
    INT32,
    INT64,
    coerce_array,
    largest,
    normalise_bound,
    normalise_range,
    type_by_name,
    type_for_array,
)


def test_type_by_name_resolves_all_supported():
    assert type_by_name("int32") is INT32
    assert type_by_name("int64") is INT64
    assert type_by_name("float64") is FLOAT64


def test_type_by_name_rejects_unknown():
    with pytest.raises(SchemaError, match="unsupported column type"):
        type_by_name("varchar")


def test_type_for_array_infers_from_dtype():
    assert type_for_array(np.array([1, 2], dtype=np.int64)) is INT64
    assert type_for_array(np.array([1.5])) is FLOAT64


def test_type_for_array_rejects_unsupported_dtype():
    with pytest.raises(SchemaError):
        type_for_array(np.array(["a", "b"]))


def test_coerce_accepts_matching_dtype():
    data = np.array([3, 1, 2], dtype=np.int64)
    out = coerce_array(data, INT64)
    assert out.dtype == np.int64
    assert np.array_equal(out, data)


def test_coerce_int_from_whole_floats():
    out = coerce_array(np.array([1.0, 2.0]), INT64)
    assert out.dtype == np.int64
    assert np.array_equal(out, [1, 2])


def test_coerce_rejects_fractional_floats_into_int():
    with pytest.raises(SchemaError, match="fractional"):
        coerce_array(np.array([1.5, 2.0]), INT64)


def test_coerce_rejects_multidimensional():
    with pytest.raises(SchemaError, match="1-D"):
        coerce_array(np.zeros((2, 2)), INT64)


def test_coerce_int32_roundtrip():
    out = coerce_array(np.array([1, 2, 3], dtype=np.int64), INT32)
    assert out.dtype == np.int32


def test_element_bytes_match_dtype():
    assert INT32.element_bytes == 4
    assert INT64.element_bytes == 8
    assert FLOAT64.element_bytes == 8


# -- the range normaliser ----------------------------------------------
#
# ``normalise_range`` is the one place a bound changes domain, so its
# property is the whole seam's: ``lo <= v < hi`` iff ``low <= v <
# high`` for every value ``v`` the dtype stores, evaluated exactly in
# Python, and an empty range (``None``) holds no value at all.


def _edges(dtype) -> list:
    """Values of ``dtype`` where a rounding or clamping bug shows."""
    if dtype.kind == "f":
        finfo = np.finfo(dtype)
        return [
            -math.inf, float(finfo.min), -(2.0**63), -1.5, -0.0, 0.0,
            5e-324, 1.5, 2.0**53, 2.0**53 + 2, 2.0**63, float(finfo.max),
            math.inf,
        ]
    info = np.iinfo(dtype)
    candidates = [
        info.min, info.min + 1, -(2**53) - 1, -1, 0, 1, 2**31 - 1,
        2**53 - 1, 2**53, 2**53 + 1, 2**60 - 1, 2**60, 2**60 + 1,
        info.max - 1, info.max,
    ]
    return [v for v in candidates if info.min <= v <= info.max]


_BOUND_POOL = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 0.5, -0.5, 10.5,
    2.0**31 - 0.5, 2.0**53, 2.0**53 - 1, 2.0**53 + 2, 2.0**63,
    -(2.0**63), 1e308, -1e308, float(2**60 + 512),
    0, -1, 2**31 - 1, 2**31, 2**53 - 1, 2**53 + 1, 2**60 + 1,
    2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64, 10**400, -(10**400),
    # numpy scalars of every numeric dtype.
    np.int8(-7), np.int16(300), np.int32(-(2**31)), np.int64(2**53 + 1),
    np.int64(2**63 - 1), np.uint8(200), np.uint16(7), np.uint32(2**32 - 1),
    np.uint64(2**63), np.uint64(2**64 - 1), np.float16(1.5),
    np.float32(2.0**31), np.float32(-0.0), np.float64(2.0**53 + 2),
    np.float64(math.nan), np.float64(-math.inf),
]

_BOUNDS = st.one_of(
    st.sampled_from(_BOUND_POOL),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
)


def _python(bound):
    """``bound`` as the Python number it denotes (numpy scalars are
    converted exactly)."""
    if isinstance(bound, np.floating):
        return float(bound)
    if isinstance(bound, np.integer):
        return int(bound)
    return bound


@pytest.mark.parametrize(
    "ctype", [INT32, INT64, FLOAT64], ids=lambda ctype: ctype.name
)
@settings(max_examples=400, deadline=None)
@given(data=st.data(), low=_BOUNDS, high=_BOUNDS)
def test_normalise_range_keeps_exactly_the_values_in_range(
    ctype, data, low, high
):
    dtype = ctype.numpy_dtype
    values = _edges(dtype)
    if dtype.kind == "f":
        values.append(data.draw(st.floats(allow_nan=False)))
    else:
        info = np.iinfo(dtype)
        values.append(data.draw(st.integers(int(info.min), int(info.max))))
    keys = normalise_range(dtype, low, high)
    raw_low, raw_high = _python(low), _python(high)
    for v in values:
        inside = raw_low <= v < raw_high
        if keys is None:
            assert not inside, (v, low, high)
        else:
            lo, hi = keys
            assert (lo <= v < hi) == inside, (v, low, high, keys)
    if keys is not None:
        lo, hi = keys
        kind = float if dtype.kind == "f" else int
        assert type(lo) is kind and type(hi) is kind
        # Keys a store of the dtype compares as they are: the low one
        # always a storable value, the high one one at most past it.
        assert lo < hi
        assert lo <= largest(dtype)
        if kind is int:
            info = np.iinfo(dtype)
            assert info.min <= lo and hi <= info.max + 1


_FLOAT_BOUNDS = st.one_of(
    st.sampled_from([b for b in _BOUND_POOL if type(b) is float]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@pytest.mark.parametrize(
    "ctype", [INT32, INT64, FLOAT64], ids=lambda ctype: ctype.name
)
@settings(max_examples=400, deadline=None)
@given(low=_FLOAT_BOUNDS, high=st.one_of(_FLOAT_BOUNDS, _BOUNDS))
def test_normalise_range_keys_each_bound_as_normalise_bound(
    ctype, low, high
):
    """The range normaliser keys float bounds on an integer column in
    its own frame; its keys, and their types, are still exactly what
    :func:`normalise_bound` gives each bound."""
    dtype = ctype.numpy_dtype
    keys = (normalise_bound(dtype, low), normalise_bound(dtype, high))
    got = normalise_range(dtype, low, high)
    if None in keys or not keys[0] < keys[1]:
        assert got is None, (low, high, got)
    else:
        assert got == keys, (low, high)
        assert [type(key) for key in got] == [type(key) for key in keys]
