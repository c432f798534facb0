"""repro: Holistic Indexing, reproduced.

A from-scratch Python reproduction of *"Holistic Indexing: Offline,
Online and Adaptive Indexing in the Same Kernel"* (Petraki, SIGMOD/PODS
2012 PhD Symposium): a column-store substrate, database cracking and
its extensions, offline what-if tuning, COLT-style online tuning, and
the holistic kernel that unifies them -- plus a bench harness that
regenerates every table and figure of the paper's evaluation.

Quickstart::

    from repro import Database, build_paper_table

    db = Database()
    db.add_table(build_paper_table(rows=100_000))
    session = db.session("holistic")
    session.idle(seconds=0.5)                    # kernel tunes
    result = session.select("R", "A1", 10, 500_000)
    print(result.count, session.report.total_response_s)
"""

from repro.config import (
    MEDIUM,
    PAPER,
    SMALL,
    TINY,
    ScaleSpec,
    available_scales,
    scale_by_name,
)
from repro.engine import (
    AccessPath,
    RangeQuery,
    Session,
    SessionReport,
    make_strategy,
)
from repro.errors import ReproError
from repro.holistic import HolisticConfig, HolisticKernel
from repro.serving import (
    CrossSessionWindowFormer,
    ServingFrontend,
    ServingReport,
)
from repro.simtime import (
    CostCharge,
    CostModel,
    SimClock,
    WallClock,
    projection_scale,
)
from repro.storage import (
    Catalog,
    Column,
    ColumnRef,
    Database,
    Table,
    build_paper_table,
    generate_uniform_column,
)

__version__ = "1.0.0"

__all__ = [
    "AccessPath",
    "Catalog",
    "Column",
    "ColumnRef",
    "CostCharge",
    "CostModel",
    "CrossSessionWindowFormer",
    "Database",
    "HolisticConfig",
    "HolisticKernel",
    "MEDIUM",
    "PAPER",
    "RangeQuery",
    "ReproError",
    "SMALL",
    "ScaleSpec",
    "ServingFrontend",
    "ServingReport",
    "Session",
    "SessionReport",
    "SimClock",
    "TINY",
    "Table",
    "WallClock",
    "available_scales",
    "build_paper_table",
    "generate_uniform_column",
    "make_strategy",
    "projection_scale",
    "scale_by_name",
    "__version__",
]
