"""What-if analysis: optimizer cost estimates for indexes not built.

The earliest offline tuning tools (Chaudhuri & Narasayya, VLDB 1997 --
the paper's [5]) introduced the "what-if" API: candidate indexes are
*simulated*, not materialized, and the optimizer's cost estimates for a
representative workload decide which ones to build.  This module
reproduces that machinery on top of our cost model: a single-column
index saves each query on its column the difference between a scan
and an index probe, and costs one full sort to build.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simtime.model import CostModel
from repro.storage.catalog import Catalog, ColumnRef


@dataclass(frozen=True, slots=True)
class WorkloadStatement:
    """One statement of a representative workload sample.

    ``weight`` counts how often the statement (or its template) occurs.
    """

    ref: ColumnRef
    low: float
    high: float
    weight: float = 1.0


class WhatIfOptimizer:
    """Optimizer-style cost estimation for hypothetical indexes.

    Args:
        catalog: resolves column statistics (row counts).
        model: the calibrated cost model used for estimates.
    """

    def __init__(self, catalog: Catalog, model: CostModel) -> None:
        self.catalog = catalog
        self.model = model

    def query_gain(self, ref: ColumnRef) -> float:
        """Estimated seconds an index on ``ref`` saves one query on
        ``ref``: a scan's cost less an index probe's."""
        rows = self.catalog.column(ref).row_count
        model = self.model
        return model.scan_seconds(rows) - model.indexed_query_seconds(rows)

    def build_cost(self, ref: ColumnRef) -> float:
        """Estimated seconds to materialize a full index on ``ref``."""
        rows = self.catalog.column(ref).row_count
        return self.model.sort_seconds(rows)
