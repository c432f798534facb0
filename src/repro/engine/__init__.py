"""Query engine: queries, operators, plans, strategies and sessions."""

from repro.engine.operators import apply_pending, scan_select
from repro.engine.plan import AccessPath, PlannedQuery, estimate_path_cost
from repro.engine.query import RangeQuery
from repro.engine.session import (
    IdleRecord,
    QueryRecord,
    Session,
    SessionReport,
    make_strategy,
)
from repro.engine.strategies import (
    AdaptiveStrategy,
    IdleOutcome,
    IndexingStrategy,
    OfflineStrategy,
    OnlineStrategy,
    ScanStrategy,
    StrategyFeatures,
)
from repro.storage.views import multiset_difference

__all__ = [
    "AccessPath",
    "AdaptiveStrategy",
    "IdleOutcome",
    "IdleRecord",
    "IndexingStrategy",
    "OfflineStrategy",
    "OnlineStrategy",
    "PlannedQuery",
    "QueryRecord",
    "RangeQuery",
    "ScanStrategy",
    "Session",
    "SessionReport",
    "StrategyFeatures",
    "apply_pending",
    "estimate_path_cost",
    "make_strategy",
    "multiset_difference",
    "scan_select",
]
