"""Workload generation: query generators, streams and paper patterns."""

from repro.workload.generators import (
    MultiColumnGenerator,
    SequentialRangeGenerator,
    SkewedRangeGenerator,
    UniformRangeGenerator,
)
from repro.workload.multiclient import (
    ClientWorkload,
    make_closed_loop_clients,
    parameterized_queries,
)
from repro.workload.patterns import (
    Exp1Pattern,
    Exp2Pattern,
    verify_table_matches,
)
from repro.workload.stream import (
    IdleEvent,
    QueryEvent,
    WorkloadEvent,
    interleave_idle,
    run_stream,
)

__all__ = [
    "ClientWorkload",
    "Exp1Pattern",
    "Exp2Pattern",
    "IdleEvent",
    "MultiColumnGenerator",
    "QueryEvent",
    "SequentialRangeGenerator",
    "SkewedRangeGenerator",
    "UniformRangeGenerator",
    "WorkloadEvent",
    "interleave_idle",
    "make_closed_loop_clients",
    "parameterized_queries",
    "run_stream",
    "verify_table_matches",
]
