"""Offline indexing substrate: what-if advisor and full-index builder.

Reproduces the classic offline auto-tuning stack the paper contrasts
with ([1, 2, 3, 5, 6, 17]): optimizer estimates for hypothetical
indexes, greedy selection under a budget, and builds of complete
sorted indexes.
"""

from repro.offline.advisor import OfflineAdvisor
from repro.offline.builder import IndexBuilder
from repro.offline.fullindex import FullIndex
from repro.offline.whatif import WhatIfOptimizer, WorkloadStatement

__all__ = [
    "FullIndex",
    "IndexBuilder",
    "OfflineAdvisor",
    "WhatIfOptimizer",
    "WorkloadStatement",
]
