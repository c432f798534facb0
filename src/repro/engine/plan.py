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

from repro.engine.query import RangeQuery
from repro.simtime.model import CostModel
from repro.storage.catalog import Catalog, ColumnRef
from repro.storage.dtypes import Key, normalise_range


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


@dataclass(slots=True)
class ColumnWindow:
    """One column's share of a batched query window.

    The group plan of ISSUE 4: a window of range queries is planned
    once per column -- ``indices`` are the window slots (positions in
    the original query list, in order), ``bounds`` each query's
    range normalised into the column's domain
    (:func:`~repro.storage.dtypes.normalise_range`; ``None`` for a
    range no value can lie in) and ``ranges`` the non-empty ones, in
    window order -- ready for the shared cracking pass and the batched
    pending-update probes.
    """

    ref: ColumnRef
    indices: list[int]
    bounds: list[tuple[Key, Key] | None]
    ranges: list[tuple[Key, Key]]


def group_by_column(
    queries: Sequence[RangeQuery], catalog: Catalog
) -> list[ColumnWindow]:
    """Group a query window by column, preserving window order.

    Returns one :class:`ColumnWindow` per distinct column, in order of
    first appearance; each window's entries keep their original
    relative order, so per-column replays interleave back into the
    sequential execution order exactly.  Every column is resolved in
    ``catalog`` here, once, so an unknown one fails before anything
    cracks; each query is normalised as it is grouped.
    """
    # Keyed by the raw (table, column) pair: hashing the tuple of
    # interned strings skips the generated ColumnRef.__hash__ frame on
    # this per-query path.
    grouped: dict[tuple, tuple] = {}
    for i, query in enumerate(queries):
        ref = query.ref
        key = (ref.table, ref.column)
        group = grouped.get(key)
        if group is None:
            group = grouped[key] = (
                ColumnWindow(ref, [], [], []),
                catalog.column(ref).values.dtype,
            )
        window, dtype = group
        pair = normalise_range(dtype, query.low, query.high)
        window.indices.append(i)
        window.bounds.append(pair)
        if pair is not None:
            window.ranges.append(pair)
    return [window for window, _ in grouped.values()]


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
