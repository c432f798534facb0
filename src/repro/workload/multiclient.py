"""Multi-client traffic generation for the serving front-end.

The concurrent serving scenario (ISSUE 5) needs N clients with
independent query streams over a shared database.  Clients are
**closed loop**: every client always has its next query ready (think a
connection pool issuing back-to-back requests), and the window former
takes up to ``depth`` in-flight queries per client per window.

Each client's predicate stream follows the production mix of the e2e
benchmark: mostly *parameterized* queries snapped to a finite grid of
prepared bounds (dashboards, templated reports -- the cross-client
overlap shared-work batching feeds on), with a uniform-random remainder
(ad-hoc analysis).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.engine.query import RangeQuery
from repro.errors import WorkloadError
from repro.storage.catalog import ColumnRef


@dataclass(slots=True)
class ClientWorkload:
    """One client's query stream."""

    client: str
    queries: list[RangeQuery]


def parameterized_queries(
    columns: Sequence[ColumnRef],
    domain_low: float,
    domain_high: float,
    count: int,
    selectivity: float = 0.001,
    grid_points: int = 320,
    grid_fraction: float = 0.95,
    seed: int | None = None,
) -> list[RangeQuery]:
    """A parameterized/ad-hoc predicate mix over several columns.

    ``grid_fraction`` of the queries snap their low bound to one of
    ``grid_points`` prepared positions; the rest are uniform random.
    Columns are chosen uniformly at random per query.

    Raises:
        WorkloadError: on an empty column list or domain, or a
            selectivity outside ``(0, 1]``.
    """
    if not columns:
        raise WorkloadError("need at least one column to query")
    if domain_high <= domain_low:
        raise WorkloadError(f"empty domain [{domain_low}, {domain_high}]")
    if not 0.0 < selectivity <= 1.0:
        raise WorkloadError(
            f"selectivity must be in (0, 1], got {selectivity}"
        )
    # The grid uses positions 0..grid_points-3 (the top of the grid is
    # held back so low + width stays inside the domain), so fewer than
    # three points leave no position at all.
    if grid_points < 3:
        raise WorkloadError(f"grid_points must be >= 3: {grid_points}")
    rng = np.random.default_rng(seed)
    span = domain_high - domain_low
    width = span * selectivity
    step = span / grid_points
    chosen = rng.integers(0, len(columns), size=count)
    uniform_lows = rng.uniform(domain_low, domain_high - width, size=count)
    grid_lows = domain_low + (
        rng.integers(0, grid_points - 2, size=count) * step
    )
    on_grid = rng.random(size=count) < grid_fraction
    lows = np.where(on_grid, grid_lows, uniform_lows)
    return [
        RangeQuery(columns[int(chosen[i])], float(lows[i]), float(lows[i]) + width)
        for i in range(count)
    ]


def make_closed_loop_clients(
    columns: Sequence[ColumnRef],
    domain_low: float,
    domain_high: float,
    clients: int,
    queries_per_client: int,
    selectivity: float = 0.001,
    grid_points: int = 320,
    grid_fraction: float = 0.95,
    seed: int = 0,
) -> list[ClientWorkload]:
    """N closed-loop clients with independent parameterized streams.

    Client ``i`` is seeded ``seed + i + 1`` so every client's stream is
    reproducible independently of the client count.

    Raises:
        WorkloadError: if ``clients`` or ``queries_per_client`` is not
            positive (or a generation parameter is invalid).
    """
    if clients < 1:
        raise WorkloadError(f"clients must be >= 1, got {clients}")
    if queries_per_client < 1:
        raise WorkloadError(
            f"queries_per_client must be >= 1: {queries_per_client}"
        )
    return [
        ClientWorkload(
            client=f"client-{i}",
            queries=parameterized_queries(
                columns,
                domain_low,
                domain_high,
                queries_per_client,
                selectivity=selectivity,
                grid_points=grid_points,
                grid_fraction=grid_fraction,
                seed=seed + i + 1,
            ),
        )
        for i in range(clients)
    ]
