"""Delta stores for pending updates.

Cracked columns cannot absorb inserts in place without violating their
piece invariants, so -- following "Updating a Cracked Database" (Idreos
et al., SIGMOD 2007, cited as [11] by the paper) -- updates are staged
in per-column delta structures and merged into indexes lazily, when a
query actually touches the affected value range.

:class:`PendingUpdates` holds one column's pending inserts (sorted
values) and deletes (sorted values plus the set of their base rows;
the rows aligned with the values, equal values by ascending row, are
derived on demand).  A write batch costs its own size plus one copy of
the value array it joins.  Queries consult the store to stay correct
before the merge happens (`select` results = index result + pending
inserts in range - pending deletes in range).
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.errors import SchemaError
from repro.storage.dtypes import (
    INT64,
    ColumnType,
    Key,
    coerce_array,
    largest,
)


def cut_at(store: np.ndarray, key: Key) -> int:
    """Index of the first entry of the sorted ``store`` at or above
    ``key``, a bound in the store's domain: all of them for a top (see
    :func:`~repro.storage.dtypes.largest`), which no store dtype holds."""
    if key > largest(store.dtype):
        return len(store)
    return int(store.searchsorted(key))


def _splice(store: np.ndarray, fresh: np.ndarray) -> np.ndarray:
    """The sorted ``store`` with the sorted ``fresh`` merged in, as a
    new array: ``np.insert(store, store.searchsorted(fresh), fresh)``.

    The ``i``-th fresh entry lands ``i`` places right of its slot (the
    fresh entries before it each shifted it by one), and the store
    fills the places in between in order -- two fancy assignments over
    one landing mask, where ``np.insert``'s generic index handling cost
    twice as much per 16-row batch.  The mask is filled in place:
    ``np.ones`` runs through two Python-level numpy calls.
    """
    landing = store.searchsorted(fresh) + np.arange(len(fresh))
    between = np.empty(len(store) + len(fresh), dtype=bool)
    between.fill(True)
    between[landing] = False
    spliced = np.empty(len(between), dtype=store.dtype)
    spliced[landing] = fresh
    spliced[between] = store
    return spliced


class PendingUpdates:
    """Pending inserts and deletes for a single column.

    Inserts are values appended to the column, kept sorted in
    :attr:`insert_values`.  Deletes are base rows: their values are
    kept sorted in :attr:`deleted_values` and the rows themselves in a
    set, which is all a batch needs to drop the rows already staged.
    Both arrays are read-only to everyone else, and range lookups
    bisect them.  :attr:`delete_positions` derives the rows aligned
    with :attr:`deleted_values` on demand (equal values by ascending
    row) for snapshots and range consumption; no read needs them.  The
    set costs 60-140 bytes a staged row (a hash slot and an int object,
    as the set grows) where an aligned ``int64`` array cost 8; in
    exchange a delete batch makes one splice, not two, and finds its
    repeats in O(batch).

    The store is copy-on-write: staging, consumption and
    :meth:`clear` *replace* its arrays and never write into them, so a
    slice handed out earlier (:meth:`inserts_in_range`, one of the
    arrays, a select result's
    :class:`~repro.storage.views.PendingOverlay`) keeps the values it
    had.  That rules out an in-place append buffer, on purpose.  The
    row set is private and changes in place.

    The store is handed the column's ``base`` values and checks every
    delete it is given against them, so each pending delete is a
    distinct base row holding exactly that value -- what lets a select
    subtract the in-range deletes without looking for them in its
    result.
    """

    def __init__(self, ctype: ColumnType, base: np.ndarray) -> None:
        self._ctype = ctype
        self._base = base
        #: The staged insert values, sorted.
        self.insert_values = np.empty(0, dtype=ctype.numpy_dtype)
        #: The staged deleted values, sorted.
        self.deleted_values = np.empty(0, dtype=ctype.numpy_dtype)
        #: The base rows behind :attr:`deleted_values`.
        self._deleted_rows: set[int] = set()
        #: The buffer views :meth:`overlap` bisects, remade when it
        #: finds an array replaced.
        self._insert_view = self._delete_view = memoryview(b"")

    # -- staging -------------------------------------------------------

    def stage_inserts(self, values: object) -> int:
        """Stage values for insertion; returns how many were staged.

        The staged array stays sorted by merging: the fresh batch is
        sorted on its own (``M log M``) and spliced in with one
        ``searchsorted`` + :func:`_splice` pass (``N + M``), instead of
        re-sorting the whole store on every call -- staging ``k``
        batches is linear per batch, not ``N log N``.
        """
        fresh = np.sort(coerce_array(values, self._ctype))
        if len(fresh):
            self.insert_values = _splice(self.insert_values, fresh)
        return len(fresh)

    def stage_deletes(self, positions: object, values: object) -> int:
        """Stage base-array positions (with their values) for deletion.

        A base position can only die once: a position already staged,
        or repeated in the batch after its first occurrence, is dropped
        by one set lookup a row, so no range consumption removes a row
        twice.  The rest are sorted by value and spliced into
        :attr:`deleted_values`.  Returns how many positions were staged.

        Raises:
            SchemaError: if a position is not an integer (a boolean
                is not one), if positions and values differ in length,
                or if a position lies outside the base column or its
                value is not the base row's -- before anything is
                staged.
        """
        pos = np.asarray(positions)
        # A list mixing booleans with integers converts to int64, so
        # its elements are checked one by one; an array's dtype says it.
        if pos.dtype.kind == "b" or (
            isinstance(positions, (list, tuple))
            and any(isinstance(p, (bool, np.bool_)) for p in positions)
        ):
            raise SchemaError(
                "a delete position is a row number, not a boolean"
            )
        pos = coerce_array(pos, INT64)
        vals = coerce_array(values, self._ctype)
        if len(pos) != len(vals):
            raise SchemaError(
                f"positions ({len(pos)}) and values ({len(vals)}) "
                "must align"
            )
        if len(pos) == 0:
            return 0
        self._check_base_rows(pos, vals)
        staged = self._deleted_rows
        fresh = []
        for i, row in enumerate(pos.tolist()):
            if row not in staged:
                staged.add(row)
                fresh.append(i)
        if not fresh:
            return 0
        if len(fresh) < len(vals):
            vals = vals[fresh]
        # Stable, so equal values keep batch order (only the sign of a
        # zero tells them apart).
        self.deleted_values = _splice(
            self.deleted_values, np.sort(vals, kind="stable")
        )
        return len(fresh)

    def _check_base_rows(self, pos: np.ndarray, vals: np.ndarray) -> None:
        """Raise unless every ``(pos, val)`` is a row of the base column
        and the value it holds."""
        base = self._base
        # A negative position wraps past every length as uint64.
        if not (
            (pos.view(np.uint64) < len(base)).all()
            and (base[pos] == vals).all()
        ):
            raise SchemaError(
                "every delete must name a row of the base column "
                f"({len(base)} rows) and the value that row holds "
                "(a NaN row equals nothing and cannot be deleted)"
            )

    # -- inspection ----------------------------------------------------

    @property
    def pending_insert_count(self) -> int:
        return len(self.insert_values)

    @property
    def pending_delete_count(self) -> int:
        return len(self.deleted_values)

    @property
    def delete_positions(self) -> np.ndarray:
        """The staged base rows aligned with :attr:`deleted_values`,
        equal values by ascending row: a new array on every read."""
        rows = np.fromiter(self._deleted_rows, np.int64)
        rows.sort()
        return rows[np.argsort(self._base[rows], kind="stable")]

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
        rows -- rows of the base column holding those values.  Sorted
        is ``np.sort``'s order: ascending, any NaN at the end.  The row
        set is built from the positions adopted.

        Raises:
            SchemaError: if the arrays break any of that -- before
                anything is adopted.
        """
        inserts = np.asarray(insert_values, dtype=self._ctype.numpy_dtype)
        pos = np.asarray(delete_positions, dtype=np.int64)
        vals = np.asarray(deleted_values, dtype=self._ctype.numpy_dtype)
        rows = set(pos.tolist())
        if (
            len(pos) != len(vals)
            or not np.array_equal(np.sort(inserts), inserts, equal_nan=True)
            or not np.array_equal(np.sort(vals), vals, equal_nan=True)
            or len(rows) != len(pos)
        ):
            raise SchemaError(
                f"restored pending arrays ({len(pos)} delete positions, "
                f"{len(vals)} values) must align, be sorted by value "
                "and name each deleted row once"
            )
        self._check_base_rows(pos, vals)
        self._insert_view = self._delete_view = memoryview(b"")
        self.insert_values = inserts
        self.deleted_values = vals
        self._deleted_rows = rows

    # The probes take a range already normalised to the column's domain
    # (``storage.dtypes.normalise_range``): keys the stores compare
    # exactly, in their own dtype, so no probe copies a store.

    def inserts_in_range(self, low: Key, high: Key) -> np.ndarray:
        """Pending inserted values v with ``low <= v < high`` (sorted)."""
        store = self.insert_values
        return store[cut_at(store, low) : cut_at(store, high)]

    def deletes_in_range(self, low: Key, high: Key) -> np.ndarray:
        """Pending deleted values v with ``low <= v < high`` (sorted)."""
        store = self.deleted_values
        return store[cut_at(store, low) : cut_at(store, high)]

    def overlap(
        self, low: Key, high: Key
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """``(inserts_in_range(low, high), deletes_in_range(low, high))``
        -- what a sequential read overlays -- or ``None`` if both are
        empty.  Each array is bisected through a view of its buffer,
        remade here when a write has replaced the array.  Staging leaves
        a view on the array it replaced until the next probe; every
        other write drops the views it outdates."""
        inserts, deletes = self.insert_values, self.deleted_values
        if not (len(inserts) or len(deletes)):
            return None
        ins, dels = self._insert_view, self._delete_view
        if ins.obj is not inserts:
            ins = self._insert_view = memoryview(inserts)
        if dels.obj is not deletes:
            dels = self._delete_view = memoryview(deletes)
        ins_lo = ins_hi = bisect_left(ins, low)
        if ins_lo < len(ins) and ins[ins_lo] < high:
            ins_hi = bisect_left(ins, high, ins_lo + 1)
        del_lo = del_hi = bisect_left(dels, low)
        if del_lo < len(dels) and dels[del_lo] < high:
            del_hi = bisect_left(dels, high, del_lo + 1)
        if ins_lo == ins_hi and del_lo == del_hi:
            return None
        return inserts[ins_lo:ins_hi], deletes[del_lo:del_hi]

    # -- consumption ---------------------------------------------------

    def take_inserts_in_range(self, low: Key, high: Key) -> np.ndarray:
        """Remove and return pending inserts in ``[low, high)``.

        This is the ripple-merge consumption path: an adaptive index
        merging a value range takes exactly the pending entries it is
        about to absorb.
        """
        lo = cut_at(self.insert_values, low)
        hi = cut_at(self.insert_values, high)
        taken = self.insert_values[lo:hi].copy()
        self._insert_view = memoryview(b"")
        self.insert_values = np.delete(
            self.insert_values, np.s_[lo:hi]
        )
        return taken

    def take_deletes_in_range(self, low: Key, high: Key) -> np.ndarray:
        """Remove and return pending deleted values in ``[low, high)``;
        their rows may be staged again."""
        lo = cut_at(self.deleted_values, low)
        hi = cut_at(self.deleted_values, high)
        taken = self.deleted_values[lo:hi].copy()
        self._deleted_rows.difference_update(
            self.delete_positions[lo:hi].tolist()
        )
        self._delete_view = memoryview(b"")
        self.deleted_values = np.delete(
            self.deleted_values, np.s_[lo:hi]
        )
        return taken

    def clear(self) -> None:
        """Drop all pending entries (after a full rebuild)."""
        self._insert_view = self._delete_view = memoryview(b"")
        self.insert_values = np.empty(0, dtype=self._ctype.numpy_dtype)
        self.deleted_values = np.empty(0, dtype=self._ctype.numpy_dtype)
        self._deleted_rows = set()

    def __repr__(self) -> str:
        return (
            f"PendingUpdates(inserts={self.pending_insert_count}, "
            f"deletes={self.pending_delete_count})"
        )
