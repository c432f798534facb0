"""Per-unit prices of logical work.

The :class:`CostModel` converts logical work counters into virtual
picoseconds using the calibrated constants of
:mod:`repro.simtime.costs`.  A ``scale`` factor projects runs executed at
a reduced data size onto the paper's 10^8-row scale: piece dynamics of
cracking on uniform data are scale-invariant in *relative* terms (after
k random cracks the expected relative piece sizes do not depend on N),
so multiplying element counts by ``N_paper / N_actual`` yields a faithful
projection of the paper's absolute numbers.  The log factor of sorting is
handled explicitly so the projection prices ``N*scale`` elements at
``log2(N*scale)`` depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.simtime.charge import CostCharge
from repro.simtime.costs import PAPER_CONSTANTS, CostConstants

#: Picoseconds per second and per nanosecond.
PS_PER_S = 10**12
_PS_PER_NS = 1_000


@dataclass(frozen=True, slots=True)
class CostModel:
    """Prices cost charges in virtual picoseconds.

    Args:
        constants: per-operation nanosecond constants; defaults to the
            paper-calibrated set.
        scale: element-count multiplier projecting a reduced-size run
            onto the paper scale.  ``scale=1`` prices the run at its
            actual size; ``scale=100`` projects a 10^6-row run onto
            10^8 rows.

    The ``*_ps`` attributes are the per-unit prices, element prices at
    ``scale``, each rounded to integer picoseconds once here (exact at
    the shipped scales and the paper's constants), so a charge costs
    ``sum(counter * price)`` and charges add up in any order.
    """

    constants: CostConstants = field(default_factory=lambda: PAPER_CONSTANTS)
    scale: float = 1.0
    scan_ps: int = field(init=False, repr=False, compare=False)
    crack_ps: int = field(init=False, repr=False, compare=False)
    merge_ps: int = field(init=False, repr=False, compare=False)
    materialize_ps: int = field(init=False, repr=False, compare=False)
    probe_ps: int = field(init=False, repr=False, compare=False)
    seek_ps: int = field(init=False, repr=False, compare=False)
    piece_ps: int = field(init=False, repr=False, compare=False)
    query_ps: int = field(init=False, repr=False, compare=False)
    crack_overhead_ps: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ConfigError(f"scale must be positive, got {self.scale}")
        c, s = self.constants, self.scale
        for name, ns in (
            ("scan_ps", c.scan_ns_per_element * s),
            ("crack_ps", c.crack_ns_per_element * s),
            ("merge_ps", c.merge_ns_per_element * s),
            ("materialize_ps", c.materialize_ns_per_element * s),
            ("probe_ps", c.probe_ns_per_comparison),
            ("seek_ps", c.seek_ns),
            ("piece_ps", c.piece_overhead_ns),
            ("query_ps", c.query_overhead_ns),
            ("crack_overhead_ps", c.crack_overhead_ns),
        ):
            object.__setattr__(self, name, round(ns * _PS_PER_NS))

    def cache_rows(self) -> int:
        """The modelled cache size in rows, de-projected by ``scale``
        so a reduced run keeps its paper-scale behaviour."""
        return int(self.constants.cache_elements() / self.scale)

    def picoseconds(self, charge: CostCharge) -> int:
        """Price ``charge`` in integer picoseconds: each counter times
        its price, plus a sort's ``n log n`` term (:meth:`sort_ps`)."""
        return (
            charge.elements_scanned * self.scan_ps
            + charge.elements_cracked * self.crack_ps
            + charge.elements_merged * self.merge_ps
            + charge.elements_materialized * self.materialize_ps
            + charge.comparisons * self.probe_ps
            + charge.seeks * self.seek_ps
            + charge.pieces_touched * self.piece_ps
            + charge.queries * self.query_ps
            + charge.cracks * self.crack_overhead_ps
            + self.sort_ps(charge.elements_sorted)
        )

    def sort_ps(self, n: int) -> int:
        """One sort of ``n`` elements: ``n log n`` at the projected
        size, rounded to integer picoseconds once per sort."""
        if n <= 0:
            return 0
        projected = n * self.scale
        return round(
            self.constants.sort_ns_per_element_log
            * _PS_PER_NS
            * projected
            * math.log2(max(2.0, projected))
        )

    def search_ps(self, n: int) -> int:
        """One binary search over ``n`` ordered elements: a comparison
        per bit of ``n`` (at least one) and a seek."""
        return self.probe_ps * (int(n).bit_length() or 1) + self.seek_ps

    # -- what-if estimators: planners and the holistic ranking price
    # -- hypothetical operations without running them.

    def scan_seconds(self, n: int) -> float:
        """Estimated cost of scan-selecting over ``n`` elements."""
        return (n * self.scan_ps + self.query_ps) / PS_PER_S

    def sort_seconds(self, n: int) -> float:
        """Estimated cost of fully sorting ``n`` elements."""
        return self.sort_ps(n) / PS_PER_S

    def crack_seconds(self, piece_size: int) -> float:
        """Estimated cost of one crack over a piece of ``piece_size``."""
        return (
            piece_size * self.crack_ps + self.piece_ps + self.crack_overhead_ps
        ) / PS_PER_S

    def probe_seconds(self, n: int) -> float:
        """Estimated cost of one binary-search probe over ``n`` rows."""
        return self.search_ps(max(1, n)) / PS_PER_S

    def indexed_query_seconds(self, n: int) -> float:
        """Estimated cost of a range query on a fully sorted column."""
        return (2 * self.search_ps(max(1, n)) + self.query_ps) / PS_PER_S


def projection_scale(actual_rows: int, paper_rows: int) -> float:
    """Scale factor projecting ``actual_rows`` onto ``paper_rows``.

    Raises:
        ConfigError: if either row count is not positive.
    """
    if actual_rows <= 0 or paper_rows <= 0:
        raise ConfigError(
            "row counts must be positive, got "
            f"actual={actual_rows}, paper={paper_rows}"
        )
    return paper_rows / actual_rows
