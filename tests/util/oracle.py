"""Test-facing oracle helpers.

``NaivePending`` is a pure-Python, exact-arithmetic model of
:class:`repro.storage.updates.PendingUpdates`: values live as Python
scalars and range predicates are evaluated with Python's exact
int/float comparisons, so there is no searchsorted, no dtype promotion,
and nothing clever to get wrong.  The hypothesis property suite replays
arbitrary stage/peek/take interleavings against it.  (The bench-side
differential oracle lives in :mod:`repro.bench.oracle`.)
"""

from __future__ import annotations

import numpy as np

from repro.storage.dtypes import ColumnType, coerce_array


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
