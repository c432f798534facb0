"""Virtual time: cost counters, calibrated cost model, and clocks.

This package is the substitution layer (docs/ARCHITECTURE.md,
"The substitution layer"): the paper measured wall-clock time inside the
MonetDB kernel on a 2011 i7; we count logical work (a
:class:`CostCharge`) through a :class:`Clock`'s named event methods,
which price each event once from a :class:`CostModel` calibrated
against the paper's anchors and drive a deterministic
:class:`SimClock`; a :class:`WallClock` counts the same work and
measures the numpy kernels for real.
"""

from repro.simtime.charge import CostCharge
from repro.simtime.clock import (
    Clock,
    ParallelAccount,
    SimClock,
    WallClock,
)
from repro.simtime.costs import (
    PAPER_ADAPTIVE_TOTAL_S,
    PAPER_COLUMN_ROWS,
    PAPER_CONSTANTS,
    PAPER_EXP2_IDLE_S,
    PAPER_HOLISTIC_TOTALS_S,
    PAPER_OFFLINE_TOTAL_S,
    PAPER_QUERY_COUNT,
    PAPER_SCAN_TOTAL_S,
    PAPER_SELECTIVITY,
    PAPER_SORT_S,
    PAPER_VALUE_HIGH,
    PAPER_VALUE_LOW,
    CostConstants,
)
from repro.simtime.model import CostModel, projection_scale

__all__ = [
    "Clock",
    "CostCharge",
    "CostConstants",
    "CostModel",
    "PAPER_ADAPTIVE_TOTAL_S",
    "PAPER_COLUMN_ROWS",
    "PAPER_CONSTANTS",
    "PAPER_EXP2_IDLE_S",
    "PAPER_HOLISTIC_TOTALS_S",
    "PAPER_OFFLINE_TOTAL_S",
    "PAPER_QUERY_COUNT",
    "PAPER_SCAN_TOTAL_S",
    "PAPER_SELECTIVITY",
    "PAPER_SORT_S",
    "PAPER_VALUE_HIGH",
    "PAPER_VALUE_LOW",
    "ParallelAccount",
    "SimClock",
    "WallClock",
    "projection_scale",
]
