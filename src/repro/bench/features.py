"""Table 1: the feature matrix of the four indexing approaches.

Each row is a running strategy's ``features()`` literal: the
approach's capabilities as the paper classifies them, not what this
code builds -- online's idle-time tick is COLT's, and this reproduction
builds inline at epoch boundaries, so an idle window passes it unused.
"""

from __future__ import annotations

from repro.engine.strategies import StrategyFeatures
from repro.simtime.clock import SimClock
from repro.storage.database import Database
from repro.storage.loader import build_paper_table
from repro.bench.report import check_mark, format_table

#: Paper's Table 1 rows, in order.
TABLE1_STRATEGIES = ("offline", "online", "adaptive", "holistic")


def collect_features() -> list[StrategyFeatures]:
    """Instantiate each strategy and collect its feature row."""
    db = Database(clock=SimClock())
    db.add_table(build_paper_table(rows=64, columns=1, seed=1))
    rows = []
    for name in TABLE1_STRATEGIES:
        session = db.session(name)
        rows.append(session.strategy.features())
    return rows


def table1_text() -> str:
    """Render Table 1 exactly as the paper lays it out."""
    headers = [
        "Indexing",
        "Statistical analysis a-priori",
        "Exploitation of idle time",
        "Exploitation of idle time during workload execution",
        "Incremental indexing",
        "Workload",
    ]
    rows = []
    for features in collect_features():
        rows.append(
            [
                features.name.capitalize(),
                check_mark(features.statistical_analysis),
                check_mark(features.idle_a_priori),
                check_mark(features.idle_during_workload),
                check_mark(features.incremental_indexing),
                features.workload,
            ]
        )
    body = format_table(headers, rows)
    return (
        "Table 1: features of offline, online, adaptive and holistic "
        f"indexing (introspected from the strategies)\n{body}"
    )


#: The paper's expected matrix, used by tests to pin the reproduction.
PAPER_TABLE1 = {
    "offline": (True, True, False, False, "static"),
    "online": (True, False, True, False, "dynamic"),
    "adaptive": (False, False, False, True, "dynamic"),
    "holistic": (True, True, True, True, "dynamic"),
}
