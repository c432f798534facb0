"""Online indexing substrate: monitoring, epochs, COLT.

Reproduces the online auto-tuning stack the paper contrasts with
([4, 16]): a continuous workload monitor, epoch-based design
reevaluation and benefit-amortized index creation/dropping.
"""

from repro.online.colt import ColtConfig, ColtTuner, EpochDecision
from repro.online.epoch import EpochManager
from repro.online.monitor import WorkloadMonitor

__all__ = [
    "ColtConfig",
    "ColtTuner",
    "EpochDecision",
    "EpochManager",
    "WorkloadMonitor",
]
