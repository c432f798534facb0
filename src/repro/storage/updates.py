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

from bisect import bisect_left

import numpy as np

from repro.errors import SchemaError
from repro.storage.dtypes import ColumnType, Key, coerce_array, largest


def cut_at(store: np.ndarray, key: Key) -> int:
    """Index of the first entry of the sorted ``store`` at or above
    ``key``, a bound in the store's domain: all of them for a top (see
    :func:`~repro.storage.dtypes.largest`), which no store dtype holds."""
    if key > largest(store.dtype):
        return len(store)
    return int(store.searchsorted(key))


def _splice(
    slots: np.ndarray, *columns: tuple[np.ndarray, np.ndarray]
) -> list[np.ndarray]:
    """``np.insert(store, slots, fresh)`` for ascending ``slots``, as a
    new array, for each ``(store, fresh)`` pair of aligned ``columns``.

    The ``i``-th fresh entry lands ``i`` places right of its slot (the
    fresh entries before it each shifted it by one), and the store
    fills the places in between in order -- two fancy assignments per
    column over one landing mask, where ``np.insert``'s generic index
    handling cost twice as much per 16-row batch.
    """
    landing = slots + np.arange(len(slots))
    between = np.ones(len(columns[0][0]) + len(slots), dtype=bool)
    between[landing] = False
    merged = []
    for store, fresh in columns:
        spliced = np.empty(len(between), dtype=store.dtype)
        spliced[landing] = fresh
        spliced[between] = store
        merged.append(spliced)
    return merged


class PendingUpdates:
    """Pending inserts and deletes for a single column.

    Inserts are (value) records appended to the column; deletes are
    base-array positions with their values.  Both are kept sorted by
    value so range lookups are logarithmic: :attr:`insert_values`,
    :attr:`deleted_values` and the aligned :attr:`delete_positions`,
    read-only to everyone else.

    The store is copy-on-write: staging, consumption and
    :meth:`clear` *replace* its arrays and never write into them, so a
    slice handed out earlier (:meth:`inserts_in_range`, one of the
    arrays, a select result's
    :class:`~repro.storage.views.PendingOverlay`) keeps the values it
    had.  That rules out an in-place append buffer, on purpose.

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
        #: Base positions aligned with :attr:`deleted_values`.
        self.delete_positions = np.empty(0, dtype=np.int64)
        #: The staged deleted values, sorted.
        self.deleted_values = np.empty(0, dtype=ctype.numpy_dtype)
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
        fresh = np.sort(coerce_array(np.asarray(values), self._ctype))
        if len(fresh) == 0:
            return 0
        staged = self.insert_values
        (self.insert_values,) = _splice(
            staged.searchsorted(fresh), (staged, fresh)
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
            SchemaError: if positions and values differ in length, or
                if a position lies outside the base column or its value
                is not the base row's -- before anything is staged.
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
        order = np.argsort(vals, kind="stable")
        vals = vals[order]
        pos = pos[order]
        staged = self.deleted_values
        slots = staged.searchsorted(vals)
        # Every delete is a base row, so a position can only repeat
        # with its own value: within the batch (the stable sort kept
        # batch order among equal values, so np.unique keeps the first
        # occurrence) or in that value's run of staged deletes.
        runs = staged.searchsorted(vals, "right") - slots
        repeats = vals[1:] == vals[:-1]
        if runs.any() or repeats.any():
            fresh = np.ones(len(pos), dtype=bool)
            if repeats.any():
                fresh[:] = False
                fresh[np.unique(pos, return_index=True)[1]] = True
            # Each distinct value's run, gathered with one vectorized
            # index: a low-cardinality column has long runs.
            first = np.concatenate(([True], ~repeats))
            lengths = runs[first]
            if lengths.any():
                ends = np.cumsum(lengths)
                gathered = np.arange(ends[-1]) + np.repeat(
                    slots[first] - ends + lengths, lengths
                )
                fresh &= ~np.isin(pos, self.delete_positions[gathered])
            pos, vals, slots = pos[fresh], vals[fresh], slots[fresh]
            if len(pos) == 0:
                return 0
        self.deleted_values, self.delete_positions = _splice(
            slots, (staged, vals), (self.delete_positions, pos)
        )
        return len(pos)

    def _check_base_rows(self, pos: np.ndarray, vals: np.ndarray) -> None:
        """Raise unless every ``(pos, val)`` is a row of the base column
        and the value it holds."""
        base = self._base
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
        return len(self.insert_values)

    @property
    def pending_delete_count(self) -> int:
        return len(self.deleted_values)

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
        is ``np.sort``'s order: ascending, any NaN at the end.

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
            or not np.array_equal(np.sort(inserts), inserts, equal_nan=True)
            or not np.array_equal(np.sort(vals), vals, equal_nan=True)
            or (staged[1:] == staged[:-1]).any()
        ):
            raise SchemaError(
                f"restored pending arrays ({len(pos)} delete positions, "
                f"{len(vals)} values) must align, be sorted by value "
                "and name each deleted row once"
            )
        self._check_base_rows(pos, vals)
        self._insert_view = self._delete_view = memoryview(b"")
        self.insert_values = inserts
        self.delete_positions = pos
        self.deleted_values = vals

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
        """Remove and return pending deleted values in ``[low, high)``."""
        lo = cut_at(self.deleted_values, low)
        hi = cut_at(self.deleted_values, high)
        taken = self.deleted_values[lo:hi].copy()
        self._delete_view = memoryview(b"")
        self.deleted_values = np.delete(
            self.deleted_values, np.s_[lo:hi]
        )
        self.delete_positions = np.delete(
            self.delete_positions, np.s_[lo:hi]
        )
        return taken

    def clear(self) -> None:
        """Drop all pending entries (after a full rebuild)."""
        self._insert_view = self._delete_view = memoryview(b"")
        self.insert_values = np.empty(0, dtype=self._ctype.numpy_dtype)
        self.delete_positions = np.empty(0, dtype=np.int64)
        self.deleted_values = np.empty(0, dtype=self._ctype.numpy_dtype)

    def __repr__(self) -> str:
        return (
            f"PendingUpdates(inserts={self.pending_insert_count}, "
            f"deletes={self.pending_delete_count})"
        )
