"""Delta stores for pending updates.

Cracked columns cannot absorb inserts in place without violating their
piece invariants, so -- following "Updating a Cracked Database" (Idreos
et al., SIGMOD 2007, cited as [11] by the paper) -- updates are staged
in per-column delta structures and merged into indexes lazily, when a
query actually touches the affected value range.

:class:`PendingUpdates` holds the pending insert and delete sets for
one column.  Queries consult it to stay correct before the merge
happens (`select` results = index result + pending inserts in range -
pending deletes in range).
"""

from __future__ import annotations

import math
from operator import index

import numpy as np

from repro.errors import SchemaError
from repro.storage.dtypes import ColumnType, coerce_array

_INT64 = np.dtype(np.int64)
#: int64 holds [-2^63, 2^63); both ends are exactly representable as
#: floats, so comparing a float bound against them is exact.  The float
#: twin saves numpy converting a 64-bit Python int per array comparison.
_INT64_TOP = 2**63
_INT64_TOP_F = 2.0**63


def _scalar_key(dtype: np.dtype, bound: float) -> float | None:
    """Exact search key for one scalar ``bound`` into a ``dtype`` store.

    The key ``k`` has ``v >= bound`` iff ``v >= k`` for every value
    ``v`` the store can hold, and searches without promoting the
    store; ``None`` means no storable value reaches the bound (NaN, or
    a bound above an integer dtype's range).  Pure Python on purpose:
    a converged select probes a delta of a few dozen rows, and
    wrapping each scalar in arrays and masks cost ten times the binary
    search itself.
    """
    # np.float64 is a float; the second test is for the narrower ones.
    is_float = isinstance(bound, float) or isinstance(bound, np.floating)
    if dtype.kind != "i":
        if is_float:
            return None if bound != bound else bound
        # An integer bound beyond 2^53 may round down on conversion:
        # take the first float at/above it.
        exact = index(bound)
        try:
            key = float(exact)
        except OverflowError:
            key = math.inf if exact > 0 else -math.inf
        return math.nextafter(key, math.inf) if key < exact else key
    wide = dtype.itemsize == 8
    top = _INT64_TOP if wide else 1 << (8 * dtype.itemsize - 1)
    if is_float:
        # An integer v has v >= b iff v >= ceil(b).  NaN and +inf have
        # no ceiling; -inf falls to the clamp below.
        if bound != bound or bound >= top:
            return None
        key = math.ceil(bound) if bound >= -top else -top
    else:
        key = index(bound)
    # After the ceil: 2^31 - 0.5 is below an int32 store's top, its
    # ceiling is not.
    if key >= top:
        return None
    if key < -top:
        key = -top
    # A Python int needle would promote a narrower store to int64 -- a
    # copy of the whole store per probe.
    return key if wide else dtype.type(key)


def _exact_scalar_cut(store: np.ndarray, bound: float) -> int:
    """:func:`exact_range_cuts` for one scalar bound: one
    ``searchsorted`` call, no temporaries."""
    key = _scalar_key(store.dtype, bound)
    return len(store) if key is None else int(store.searchsorted(key))


def exact_search_keys(
    dtype: np.dtype, bounds: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """Search keys for ``bounds`` into any sorted store of ``dtype``.

    Returns ``(keys, above)``: ``keys`` compare exactly against the
    store's values, and ``above`` masks the bounds no storable value
    reaches (``None`` when there are none; a NaN bound is always one
    of them) -- their cut is ``len(store)`` whatever the store holds.
    Split from the probe so a window normalises its bounds once for
    every store of a column (:func:`cuts_at_keys`).
    """
    kind = bounds.dtype.kind
    if dtype.kind != "i":
        if kind == "f":
            keys = bounds.astype(np.float64, copy=False)
        else:
            keys = np.array(
                [_scalar_key(dtype, bound) for bound in bounds.tolist()],
                dtype=np.float64,
            )
        nan = np.isnan(keys)
        return keys, (nan if nan.any() else None)
    if kind == "f":
        keys = np.ceil(bounds.astype(np.float64, copy=False))
        # NaN fails the comparison too, as it should.
        above = ~(keys < _INT64_TOP_F)
        # Below-range bounds clamp to int64 min: every value is >= it.
        np.maximum(keys, -_INT64_TOP_F, out=keys)
        if not np.count_nonzero(above):
            return keys.astype(np.int64), None
        keys[above] = 0.0
        return keys.astype(np.int64), above
    if kind == "i" or (kind in "ub" and bounds.dtype.itemsize < 8):
        # Signed (or narrower unsigned) bounds compare exactly as they
        # are; widening them would make searchsorted copy a narrower
        # store per probe.
        return bounds, None
    # uint64 / Python-int object bounds: int64_store.searchsorted would
    # promote both sides to float64, so clamp into int64 one by one.
    exact = [_scalar_key(_INT64, bound) for bound in bounds.tolist()]
    above = np.array([key is None for key in exact], dtype=bool)
    keys = np.array(
        [0 if key is None else key for key in exact], dtype=np.int64
    )
    return keys, (above if above.any() else None)


def cuts_at_keys(
    store: np.ndarray, keys: np.ndarray, above: np.ndarray | None
) -> np.ndarray:
    """Probe ``store`` with keys from :func:`exact_search_keys`."""
    cuts = store.searchsorted(keys, side="left")
    if above is not None:
        cuts[above] = len(store)
    return cuts


def exact_range_cuts(store: np.ndarray, bounds: object) -> np.ndarray | int:
    """Index of the first element ``>= bound`` per bound, exactly.

    ``np.searchsorted(int_store, float_bound)`` promotes the *store* to
    float64, which rounds stored values beyond 2^53 onto the bound and
    makes the binary search disagree with exact ``low <= v < high``
    comparisons.  For integer stores the bounds are converted to exact
    int64 search keys instead (an integer ``v`` satisfies ``v >= b``
    iff ``v >= ceil(b)``); float stores compare float-to-float, which
    is already exact.  NaN bounds match nothing; bounds beyond the
    int64 range (floats, unsigned or Python ints) clamp to the store's
    ends.

    A scalar bound (Python or numpy scalar) returns a plain ``int``
    through :func:`_exact_scalar_cut`; anything else is probed as an
    array.
    """
    if isinstance(bounds, (float, int, np.number)):
        return _exact_scalar_cut(store, bounds)
    keys = np.asarray(bounds)
    cuts = cuts_at_keys(
        store, *exact_search_keys(store.dtype, np.atleast_1d(keys))
    )
    return cuts[0] if keys.ndim == 0 else cuts


def _range_cut_pair(
    store: np.ndarray, low: float, high: float
) -> tuple[int, int]:
    """Slice bounds ``[lo, hi)`` of store entries with ``low <= v < high``.

    :func:`exact_range_cuts` maps a NaN bound to ``len(store)`` ("first
    element >= NaN" -- nothing is), which yields the empty range when
    NaN arrives as the *low* bound but would select the whole tail if
    used verbatim as the *high* cut.  ``low <= v < high`` is false for
    every ``v`` when either bound is NaN, so the pair degenerates to
    empty here before the cuts are composed into a slice.  Scalar
    bounds only (Python or numpy numbers).
    """
    if low != low or high != high:
        return 0, 0
    return _exact_scalar_cut(store, low), _exact_scalar_cut(store, high)


def _splice(
    store: np.ndarray, slots: np.ndarray, fresh: np.ndarray
) -> np.ndarray:
    """``np.insert(store, slots, fresh)`` for ascending ``slots``, as a
    new array.

    The ``i``-th fresh entry lands ``i`` places right of its slot (the
    fresh entries before it each shifted it by one), and the store
    fills the places in between in order -- two fancy assignments where
    ``np.insert``'s generic index handling cost twice as much per
    16-row batch.
    """
    landing = slots + np.arange(len(slots))
    merged = np.empty(len(store) + len(slots), dtype=store.dtype)
    merged[landing] = fresh
    between = np.ones(len(merged), dtype=bool)
    between[landing] = False
    merged[between] = store
    return merged


class PendingUpdates:
    """Pending inserts and deletes for a single column.

    Inserts are (value) records appended to the column; deletes are
    base-array positions with their values.  Both are kept sorted by
    value so range lookups are logarithmic; the staged positions are
    also kept sorted on their own, so staging can tell a position that
    is already staged without re-sorting the store.

    The store is copy-on-write: staging, consumption and
    :meth:`clear` *replace* its arrays and never write into them, so a
    slice handed out earlier (:meth:`inserts_in_range`, the
    :attr:`insert_values` property, a select result's
    :class:`~repro.storage.views.PendingOverlay`) keeps the values it
    had.  That rules out an in-place append buffer, on purpose.

    A store owned by a :class:`~repro.storage.table.Table` is handed
    the column's ``base`` values and checks every delete it is given
    against them (:attr:`verifies_deletes`), so each pending delete is
    a distinct base row holding exactly that value -- what lets a
    select subtract the in-range deletes without looking for them in
    its result.  A standalone store takes deletes on trust.
    """

    def __init__(
        self, ctype: ColumnType, base: np.ndarray | None = None
    ) -> None:
        self._ctype = ctype
        self._base = base
        #: Whether every pending delete is a checked row of the base.
        self.verifies_deletes = base is not None
        self._insert_values = np.empty(0, dtype=ctype.numpy_dtype)
        self._delete_positions = np.empty(0, dtype=np.int64)
        self._deleted_values = np.empty(0, dtype=ctype.numpy_dtype)
        #: ``_delete_positions`` in ascending order (membership probes).
        self._staged_positions = np.empty(0, dtype=np.int64)

    # -- staging -------------------------------------------------------

    def stage_inserts(self, values: object) -> int:
        """Stage values for insertion; returns how many were staged.

        The staged array stays sorted by merging: the fresh batch is
        sorted on its own (``M log M``) and spliced in with one
        ``searchsorted`` + :func:`_splice` pass (``N + M``), instead of
        re-sorting the whole store on every call -- staging ``k``
        batches is linear per batch, not ``N log N``.
        """
        fresh = np.sort(coerce_array(np.asarray(values), self._ctype))
        if len(fresh) == 0:
            return 0
        staged = self._insert_values
        self._insert_values = _splice(
            staged, staged.searchsorted(fresh), fresh
        )
        return len(fresh)

    def stage_deletes(self, positions: object, values: object) -> int:
        """Stage base-array positions (with their values) for deletion.

        Both arrays are kept aligned and sorted by value across
        staging batches (the merge splices each batch in, as
        :meth:`stage_inserts` does), so a range consumption always
        removes matching (position, value) pairs.

        A base position can only die once: duplicates within the batch
        and positions already staged are dropped here, so a row deleted
        twice before any merge is not double-counted when a range
        consumption later removes it.  Returns how many positions were
        actually staged (after dedup).

        Raises:
            SchemaError: if positions and values differ in length, or,
                in a table's store, if a position lies outside the
                base column or its value is not the base row's --
                before anything is staged.
        """
        pos = np.asarray(positions, dtype=np.int64)
        vals = coerce_array(np.asarray(values), self._ctype)
        if len(pos) != len(vals):
            raise SchemaError(
                f"positions ({len(pos)}) and values ({len(vals)}) "
                "must align"
            )
        if len(pos) == 0:
            return 0
        self._check_base_rows(pos, vals)
        # Both sides are unique by invariant, so a batch costs its own
        # sort plus one binary search per position -- not a re-sort of
        # everything staged so far.
        fresh, first_seen = np.unique(pos, return_index=True)
        staged = self._staged_positions
        slots = staged.searchsorted(fresh)
        if len(staged):
            unstaged = staged.take(slots, mode="clip") != fresh
            if not unstaged.all():
                fresh = fresh[unstaged]
                first_seen = first_seen[unstaged]
                slots = slots[unstaged]
                if len(fresh) == 0:
                    return 0
        if len(fresh) != len(pos):
            keep = np.sort(first_seen)
            pos = pos[keep]
            vals = vals[keep]
        self._staged_positions = _splice(staged, slots, fresh)
        order = np.argsort(vals, kind="stable")
        vals = vals[order]
        slots = self._deleted_values.searchsorted(vals)
        self._deleted_values = _splice(self._deleted_values, slots, vals)
        self._delete_positions = _splice(
            self._delete_positions, slots, pos[order]
        )
        return len(pos)

    def _check_base_rows(self, pos: np.ndarray, vals: np.ndarray) -> None:
        """Raise unless every ``(pos, val)`` is a row of the base column
        and the value it holds (a standalone store has no base to ask)."""
        base = self._base
        if base is None:
            return
        inside = (pos >= 0) & (pos < len(base))
        if not (inside.all() and (base[pos] == vals).all()):
            raise SchemaError(
                "every delete must name a row of the base column "
                f"({len(base)} rows) and the value that row holds "
                "(a NaN row equals nothing and cannot be deleted)"
            )

    # -- inspection ----------------------------------------------------

    @property
    def pending_insert_count(self) -> int:
        return len(self._insert_values)

    @property
    def pending_delete_count(self) -> int:
        return len(self._deleted_values)

    @property
    def insert_values(self) -> np.ndarray:
        """The staged insert values, sorted (no copy -- do not mutate)."""
        return self._insert_values

    @property
    def deleted_values(self) -> np.ndarray:
        """The staged deleted values, sorted (no copy -- do not mutate)."""
        return self._deleted_values

    @property
    def delete_positions(self) -> np.ndarray:
        """Base positions aligned with :attr:`deleted_values` (no copy)."""
        return self._delete_positions

    def restore_state(
        self,
        insert_values: np.ndarray,
        delete_positions: np.ndarray,
        deleted_values: np.ndarray,
    ) -> None:
        """Adopt previously-exported store arrays (snapshot restore).

        They are held to what staging establishes, because selects
        compute on it unchecked: inserts sorted by value, delete
        positions/values aligned, sorted by value and naming distinct
        rows -- rows of the base column holding those values, in a
        table's store.

        Raises:
            SchemaError: if the arrays break any of that -- before
                anything is adopted.
        """
        inserts = np.asarray(insert_values, dtype=self._ctype.numpy_dtype)
        pos = np.asarray(delete_positions, dtype=np.int64)
        vals = np.asarray(deleted_values, dtype=self._ctype.numpy_dtype)
        staged = np.sort(pos)
        if (
            len(pos) != len(vals)
            or (inserts[1:] < inserts[:-1]).any()
            or (vals[1:] < vals[:-1]).any()
            or (staged[1:] == staged[:-1]).any()
        ):
            raise SchemaError(
                f"restored pending arrays ({len(pos)} delete positions, "
                f"{len(vals)} values) must align, be sorted by value "
                "and name each deleted row once"
            )
        self._check_base_rows(pos, vals)
        self._insert_values = inserts
        self._delete_positions = pos
        self._deleted_values = vals
        self._staged_positions = staged

    def has_pending(self) -> bool:
        return self.pending_insert_count > 0 or self.pending_delete_count > 0

    def inserts_in_range(self, low: float, high: float) -> np.ndarray:
        """Pending inserted values v with ``low <= v < high`` (sorted)."""
        lo, hi = _range_cut_pair(self._insert_values, low, high)
        return self._insert_values[lo:hi]

    def deletes_in_range(self, low: float, high: float) -> np.ndarray:
        """Pending deleted values v with ``low <= v < high`` (sorted)."""
        lo, hi = _range_cut_pair(self._deleted_values, low, high)
        return self._deleted_values[lo:hi]

    def in_range(
        self, low: float, high: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(inserts_in_range(low, high), deletes_in_range(low, high))``
        -- what a select overlays.

        Both stores hold the column's dtype, so the two bounds are made
        exact search keys once and each store is probed once with both.
        A bound without a key (NaN, or above the dtype) takes the
        per-store probes, which know its answer.
        """
        inserts = self._insert_values
        deletes = self._deleted_values
        low_key = _scalar_key(inserts.dtype, low)
        high_key = _scalar_key(inserts.dtype, high)
        if low_key is None or high_key is None:
            return (
                self.inserts_in_range(low, high),
                self.deletes_in_range(low, high),
            )
        # In the stores' dtype: a wider needle would copy a narrow store.
        keys = np.array((low_key, high_key), dtype=inserts.dtype)
        ins_lo, ins_hi = inserts.searchsorted(keys).tolist()
        del_lo, del_hi = deletes.searchsorted(keys).tolist()
        return inserts[ins_lo:ins_hi], deletes[del_lo:del_hi]

    # -- consumption ---------------------------------------------------

    def take_inserts_in_range(self, low: float, high: float) -> np.ndarray:
        """Remove and return pending inserts in ``[low, high)``.

        This is the ripple-merge consumption path: an adaptive index
        merging a value range takes exactly the pending entries it is
        about to absorb.
        """
        lo, hi = _range_cut_pair(self._insert_values, low, high)
        taken = self._insert_values[lo:hi].copy()
        self._insert_values = np.delete(
            self._insert_values, np.s_[lo:hi]
        )
        return taken

    def take_deletes_in_range(self, low: float, high: float) -> np.ndarray:
        """Remove and return pending deleted values in ``[low, high)``."""
        lo, hi = _range_cut_pair(self._deleted_values, low, high)
        taken = self._deleted_values[lo:hi].copy()
        self._deleted_values = np.delete(
            self._deleted_values, np.s_[lo:hi]
        )
        gone = self._delete_positions[lo:hi]
        self._staged_positions = np.delete(
            self._staged_positions, self._staged_positions.searchsorted(gone)
        )
        self._delete_positions = np.delete(
            self._delete_positions, np.s_[lo:hi]
        )
        return taken

    def clear(self) -> None:
        """Drop all pending entries (after a full rebuild)."""
        self._insert_values = np.empty(0, dtype=self._ctype.numpy_dtype)
        self._delete_positions = np.empty(0, dtype=np.int64)
        self._deleted_values = np.empty(0, dtype=self._ctype.numpy_dtype)
        self._staged_positions = np.empty(0, dtype=np.int64)

    def __repr__(self) -> str:
        return (
            f"PendingUpdates(inserts={self.pending_insert_count}, "
            f"deletes={self.pending_delete_count})"
        )
