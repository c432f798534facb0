"""Column type system.

The paper's experiments use 4-byte integer columns; we additionally
support 8-byte integers and doubles so the library is usable beyond the
exact reproduction.  Types are deliberately a closed set: a column store
kernel fixes its physical layouts up front.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from repro.errors import SchemaError


@dataclass(frozen=True, slots=True)
class ColumnType:
    """A supported physical column type.

    Attributes:
        name: SQL-ish type name (``int32``, ``int64``, ``float64``).
        numpy_dtype: the numpy dtype backing the column.
        element_bytes: physical width of one value.
        is_integer: whether the domain is integral (affects predicate
            normalization: integer ranges can be made half-open exactly).
    """

    name: str
    numpy_dtype: np.dtype
    element_bytes: int
    is_integer: bool


INT32 = ColumnType("int32", np.dtype(np.int32), 4, True)
INT64 = ColumnType("int64", np.dtype(np.int64), 8, True)
FLOAT64 = ColumnType("float64", np.dtype(np.float64), 8, False)

_BY_NAME = {t.name: t for t in (INT32, INT64, FLOAT64)}
_BY_DTYPE = {t.numpy_dtype: t for t in (INT32, INT64, FLOAT64)}

#: A range bound in a column's own domain (:func:`normalise_bound`): a
#: Python int for an integer column, a float for a float column.
Key = int | float

#: (smallest value, one past the largest) of each integer column dtype.
_INT_LIMITS = {
    t.numpy_dtype: (
        int(np.iinfo(t.numpy_dtype).min),
        int(np.iinfo(t.numpy_dtype).max) + 1,
    )
    for t in (INT32, INT64)
}


def largest(dtype: np.dtype) -> Key:
    """The largest value ``dtype`` stores (``inf`` for floats): a
    normalised upper bound above it is the column's *top*, the end of
    the column, which no index records as a pivot."""
    limits = _INT_LIMITS.get(dtype)
    return math.inf if limits is None else limits[1] - 1


def normalise_bound(dtype: np.dtype, bound: object) -> Key | None:
    """The key ``k`` of a range bound in ``dtype``'s own domain.

    ``v >= bound`` iff ``v >= k`` for every value ``v`` the dtype
    stores, compared exactly.  For an integer dtype ``k`` is a Python
    int: ``math.ceil`` of a float bound, an integer bound as given,
    clamped to ``[min, max + 1]`` (``max + 1`` is the top, see
    :func:`largest`).  For a float dtype a float bound stays as it is
    and an integer bound becomes the first float at or above it.
    ``None`` for NaN, which no value reaches.

    Raises:
        TypeError: for a bound that is neither a float nor an integer.
    """
    return _key(_INT_LIMITS.get(dtype), bound)


def _key(limits: tuple[int, int] | None, bound: object) -> Key | None:
    """:func:`normalise_bound` for the dtype's ``_INT_LIMITS`` entry."""
    is_float = type(bound) is float or isinstance(bound, np.floating)
    if limits is None:
        if is_float:
            key = float(bound)  # type: ignore[arg-type]
            return None if key != key else key
        exact = operator.index(bound)  # type: ignore[arg-type]
        try:
            key = float(exact)
        except OverflowError:
            # Beyond every finite float: inf above, the lowest finite
            # float (the first one at or above it) below.
            return math.inf if exact > 0 else -sys.float_info.max
        return math.nextafter(key, math.inf) if key < exact else key
    low, top = limits
    if is_float:
        key = float(bound)  # type: ignore[arg-type]
        if key != key:
            return None
        # normalise_range inlines this expression: change both together.
        return top if key >= top else low if key <= low else math.ceil(key)
    exact = operator.index(bound)  # type: ignore[arg-type]
    return low if exact < low else top if exact > top else exact


def normalise_range(
    dtype: np.dtype, low: object, high: object
) -> tuple[Key, Key] | None:
    """``low <= v < high`` over values of ``dtype`` as the half-open
    range ``(lo, hi)`` of :func:`normalise_bound` keys, or ``None`` when
    no storable value lies in it (a NaN bound, or ``lo >= hi``).

    The one place a range bound changes domain: the session normalises
    each query once, where it resolves the column, and every layer
    below takes the keys as they are.  An empty range is answered for
    the per-query overhead alone -- no probe, no crack, no charge.
    """
    limits = _INT_LIMITS.get(dtype)
    if limits is None or type(low) is not float or type(high) is not float:
        lo, hi = _key(limits, low), _key(limits, high)
    elif low != low or high != high:
        return None
    else:
        # Float bounds on an integer column, a session's usual range,
        # keyed in this frame: :func:`_key`'s float expression, inlined.
        floor, top = limits
        lo = top if low >= top else floor if low <= floor else math.ceil(low)
        hi = top if high >= top else floor if high <= floor else math.ceil(high)
    if lo is None or hi is None or not lo < hi:
        return None
    return lo, hi


def type_by_name(name: str) -> ColumnType:
    """Look up a column type by name.

    Raises:
        SchemaError: if the name is not a supported type.
    """
    try:
        return _BY_NAME[name]
    except KeyError:
        supported = ", ".join(sorted(_BY_NAME))
        raise SchemaError(
            f"unsupported column type {name!r}; supported: {supported}"
        ) from None


def type_for_array(values: np.ndarray) -> ColumnType:
    """Infer the column type backing a numpy array.

    Raises:
        SchemaError: if the array dtype is not a supported column type.
    """
    dtype = np.asarray(values).dtype
    try:
        return _BY_DTYPE[dtype]
    except KeyError:
        supported = ", ".join(sorted(_BY_NAME))
        raise SchemaError(
            f"unsupported array dtype {dtype!r}; supported: {supported}"
        ) from None


def coerce_array(values: object, ctype: ColumnType) -> np.ndarray:
    """Coerce ``values`` into a 1-D contiguous array of ``ctype``.

    Integer targets reject inputs that would be truncated (floats with
    fractional parts) rather than silently rounding.

    Raises:
        SchemaError: if the input is not 1-D or cannot be represented.
    """
    array = np.asarray(values)
    if array.ndim != 1:
        raise SchemaError(f"column data must be 1-D, got shape {array.shape}")
    if array.dtype == ctype.numpy_dtype:
        return np.ascontiguousarray(array)
    if ctype.is_integer and np.issubdtype(array.dtype, np.floating):
        if not np.all(np.mod(array, 1) == 0):
            raise SchemaError(
                f"cannot store fractional values in {ctype.name} column"
            )
    try:
        coerced = array.astype(ctype.numpy_dtype, casting="same_kind")
    except TypeError:
        coerced = array.astype(ctype.numpy_dtype)
        if not np.array_equal(coerced, array):
            raise SchemaError(
                f"values not representable as {ctype.name}"
            ) from None
    return np.ascontiguousarray(coerced)
