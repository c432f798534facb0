"""Access-path planning and EXPLAIN output.

Strategies decide how each range select is answered; the plan layer
names those choices, estimates their cost with the calibrated model,
and renders a human-readable EXPLAIN -- useful in examples, tests and
when debugging why a strategy behaves as it does.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from repro.engine.query import RangeQuery
from repro.simtime.model import CostModel
from repro.storage.catalog import Catalog, ColumnRef
from repro.storage.dtypes import Key, largest, normalise_range
from repro.storage.updates import PendingUpdates


class AccessPath(Enum):
    """How a range select is physically answered."""

    SCAN = "scan"
    FULL_INDEX = "full-index"
    CRACKER = "cracker"
    WAIT_FOR_BUILD = "wait-for-build"


@dataclass(frozen=True, slots=True)
class PlannedQuery:
    """A query with its chosen access path and cost estimate."""

    query: RangeQuery
    path: AccessPath
    estimated_s: float
    reason: str = ""

    def explain(self) -> str:
        """One-line EXPLAIN text."""
        note = f"  -- {self.reason}" if self.reason else ""
        return (
            f"{self.path.value.upper():>14}  "
            f"est={self.estimated_s * 1e3:10.4f} ms  {self.query}{note}"
        )


#: Each column queried so far: its dtype, delta store and the dtype's
#: :func:`~repro.storage.dtypes.largest` value.  Never stale: the
#: catalog only adds columns, and a column's delta store is made with it.
Resolved = dict[ColumnRef, tuple[np.dtype, PendingUpdates, Key]]


def resolve_column(
    resolved: Resolved, catalog: Catalog, ref: ColumnRef
) -> tuple[np.dtype, PendingUpdates, Key]:
    """Look ``ref`` up in ``catalog`` (an unknown one raises) and
    remember it in ``resolved``."""
    table = catalog.table(ref.table)
    dtype = table.column(ref.column).ctype.numpy_dtype
    entry = resolved[ref] = (
        dtype, table.updates_for(ref.column), largest(dtype)
    )
    return entry


@dataclass(slots=True)
class ColumnWindow:
    """One column's share of a batched query window: its plan.

    ``indices`` are the window slots (positions in the original query
    list, in order), ``bounds`` each query's range normalised into the
    column's domain (:func:`~repro.storage.dtypes.normalise_range`;
    ``None`` for a range no value can lie in) and ``ranges`` the
    non-empty ones, in window order -- ready for the shared cracking
    pass.  ``dtype``, ``pending`` and ``top`` are the column's resolved
    entry (:data:`Resolved`), and ``keys`` and ``tops`` are what the
    delta store's probe (:class:`~repro.engine.operators.PendingWindow`)
    searches: per slot a low and a high key, ``(0, 0)`` for an empty
    range and ``top`` for a top, whose slots ``tops`` lists.
    """

    ref: ColumnRef
    dtype: np.dtype
    pending: PendingUpdates
    top: Key
    indices: list[int]
    bounds: list[tuple[Key, Key] | None]
    ranges: list[tuple[Key, Key]]
    keys: list[Key]
    tops: list[int]


def group_by_column(
    queries: Sequence[RangeQuery], catalog: Catalog, resolved: Resolved
) -> list[ColumnWindow]:
    """Plan a query window by column, preserving window order.

    Returns one :class:`ColumnWindow` per distinct column, in order of
    first appearance; each window's entries keep their original
    relative order, so per-column replays interleave back into the
    sequential execution order exactly.  Every column is resolved here,
    once -- through ``resolved``, else in ``catalog`` -- so an unknown
    one fails before anything cracks; each query is normalised, and
    its probe keys collected, as it is grouped.
    """
    grouped: dict[ColumnRef, ColumnWindow] = {}
    for i, query in enumerate(queries):
        ref = query.ref
        window = grouped.get(ref)
        if window is None:
            column = resolved.get(ref)
            if column is None:
                column = resolve_column(resolved, catalog, ref)
            window = grouped[ref] = ColumnWindow(
                ref, *column, [], [], [], [], []
            )
        pair = normalise_range(window.dtype, query.low, query.high)
        window.indices.append(i)
        window.bounds.append(pair)
        if pair is None:
            window.keys += (0, 0)  # probes as [0, 0)
        else:
            window.ranges.append(pair)
            if pair[1] > window.top:
                window.tops.append(len(window.bounds) - 1)
                window.keys += (pair[0], window.top)
            else:
                window.keys += pair
    return list(grouped.values())


def estimate_path_cost(
    path: AccessPath,
    rows: int,
    model: CostModel,
    piece_size: int | None = None,
) -> float:
    """Estimated seconds for answering one query via ``path``.

    ``piece_size`` refines the CRACKER estimate (cost of cracking the
    piece(s) the bounds fall into); it defaults to treating the column
    as one piece.
    """
    if path is AccessPath.SCAN:
        return model.scan_seconds(rows)
    if path is AccessPath.FULL_INDEX:
        return model.indexed_query_seconds(rows)
    if path is AccessPath.WAIT_FOR_BUILD:
        return model.sort_seconds(rows) + model.indexed_query_seconds(rows)
    size = piece_size if piece_size is not None else rows
    return model.crack_seconds(size) + model.probe_seconds(rows)
