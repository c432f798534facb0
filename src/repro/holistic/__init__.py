"""Holistic indexing: the paper's contribution.

A kernel-integrated tuner that monitors continuously (online), refines
partial indexes during query processing (adaptive) and spends any idle
time on statistics-driven auxiliary refinements (offline) -- plus the
no-knowledge catalog bootstrap and the no-idle hot-range boost of the
paper's Section 3.
"""

from repro.holistic.kernel import HolisticConfig, HolisticKernel
from repro.holistic.policies import (
    RankedPolicy,
    RoundRobinPolicy,
    TuningPolicy,
    WeightedRandomPolicy,
    make_policy,
)
from repro.holistic.ranking import ColumnRanking, ColumnTuningState
from repro.holistic.scheduler import IdleScheduler, TuningReport
from repro.holistic.tuner import ActionKind, AuxiliaryTuner
from repro.holistic.workers import TuningWorkerPool, WorkerStats

__all__ = [
    "ActionKind",
    "AuxiliaryTuner",
    "ColumnRanking",
    "ColumnTuningState",
    "HolisticConfig",
    "HolisticKernel",
    "IdleScheduler",
    "RankedPolicy",
    "RoundRobinPolicy",
    "TuningPolicy",
    "TuningReport",
    "TuningWorkerPool",
    "WeightedRandomPolicy",
    "WorkerStats",
    "make_policy",
]
