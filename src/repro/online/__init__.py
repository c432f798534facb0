"""Online indexing substrate: monitoring and COLT.

Reproduces the online auto-tuning stack the paper contrasts with
([4, 16]): a continuous workload monitor, epoch-based design
reevaluation and benefit-amortized index creation/dropping.
"""

from repro.online.colt import ColtTuner, EpochDecision
from repro.online.monitor import WorkloadMonitor

__all__ = [
    "ColtTuner",
    "EpochDecision",
    "WorkloadMonitor",
]
