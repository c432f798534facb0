"""Virtual time: cost charges, calibrated cost model, and clocks.

This package is the substitution layer (docs/ARCHITECTURE.md,
"``repro.simtime`` -- virtual time"): the paper measured wall-clock time inside the MonetDB kernel on a 2011
i7; we count logical work (:class:`CostCharge`) and price it with a
:class:`CostModel` calibrated against the paper's published anchors,
driving a deterministic :class:`SimClock`.  A :class:`WallClock` is
provided for genuine measurements of the numpy kernels.
"""

from repro.simtime.charge import ChargeBatch, CostCharge
from repro.simtime.clock import (
    Clock,
    ParallelAccount,
    SimClock,
    Stopwatch,
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
    "ChargeBatch",
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
    "Stopwatch",
    "WallClock",
    "projection_scale",
]
