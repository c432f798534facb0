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

    The store is handed the column's ``base`` values and checks every
    delete it is given against them, so each pending delete is a
    distinct base row holding exactly that value -- what lets a select
    subtract the in-range deletes without looking for them in its
    result.
    """

    def __init__(self, ctype: ColumnType, base: np.ndarray) -> None:
        self._ctype = ctype
        self._largest = largest(ctype.numpy_dtype)
        self._base = base
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
        rows -- rows of the base column holding those values.

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

    # The probes take a range already normalised to the column's domain
    # (``storage.dtypes.normalise_range``): keys the stores compare
    # exactly, in their own dtype, so no probe copies a store.

    def inserts_in_range(self, low: Key, high: Key) -> np.ndarray:
        """Pending inserted values v with ``low <= v < high`` (sorted)."""
        store = self._insert_values
        return store[cut_at(store, low) : cut_at(store, high)]

    def deletes_in_range(self, low: Key, high: Key) -> np.ndarray:
        """Pending deleted values v with ``low <= v < high`` (sorted)."""
        store = self._deleted_values
        return store[cut_at(store, low) : cut_at(store, high)]

    def in_range(self, low: Key, high: Key) -> tuple[np.ndarray, np.ndarray]:
        """``(inserts_in_range(low, high), deletes_in_range(low, high))``
        -- what a select overlays, with each store probed once for both
        keys."""
        if high > self._largest:
            return (
                self.inserts_in_range(low, high),
                self.deletes_in_range(low, high),
            )
        inserts = self._insert_values
        deletes = self._deleted_values
        keys = np.array((low, high), dtype=inserts.dtype)
        ins_lo, ins_hi = inserts.searchsorted(keys).tolist()
        del_lo, del_hi = deletes.searchsorted(keys).tolist()
        return inserts[ins_lo:ins_hi], deletes[del_lo:del_hi]

    # -- consumption ---------------------------------------------------

    def take_inserts_in_range(self, low: Key, high: Key) -> np.ndarray:
        """Remove and return pending inserts in ``[low, high)``.

        This is the ripple-merge consumption path: an adaptive index
        merging a value range takes exactly the pending entries it is
        about to absorb.
        """
        lo = cut_at(self._insert_values, low)
        hi = cut_at(self._insert_values, high)
        taken = self._insert_values[lo:hi].copy()
        self._insert_values = np.delete(
            self._insert_values, np.s_[lo:hi]
        )
        return taken

    def take_deletes_in_range(self, low: Key, high: Key) -> np.ndarray:
        """Remove and return pending deleted values in ``[low, high)``."""
        lo = cut_at(self._deleted_values, low)
        hi = cut_at(self._deleted_values, high)
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
