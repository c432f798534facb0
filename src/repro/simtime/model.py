"""Pricing of :class:`~repro.simtime.charge.CostCharge` records.

The :class:`CostModel` converts logical work counters into virtual
nanoseconds using the calibrated constants of
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

_NS_PER_S = 1e9


@dataclass(slots=True)
class CostModel:
    """Prices cost charges in virtual seconds.

    Args:
        constants: per-operation nanosecond constants; defaults to the
            paper-calibrated set.
        scale: element-count multiplier projecting a reduced-size run
            onto the paper scale.  ``scale=1`` prices the run at its
            actual size; ``scale=100`` projects a 10^6-row run onto
            10^8 rows.
    """

    constants: CostConstants = field(default_factory=lambda: PAPER_CONSTANTS)
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ConfigError(f"scale must be positive, got {self.scale}")

    def cache_rows(self) -> int:
        """The modelled cache size in rows, de-projected by ``scale``
        so a reduced run keeps its paper-scale behaviour."""
        return int(self.constants.cache_elements() / self.scale)

    def seconds(self, charge: CostCharge) -> float:
        """Price ``charge`` and return the virtual seconds it costs."""
        return self.nanoseconds(charge) / _NS_PER_S

    def nanoseconds(self, charge: CostCharge) -> float:
        """Price ``charge`` in virtual nanoseconds.

        Zero counters are skipped: hot-path charges carry two or three
        non-zero fields, and this method runs once per crack.  The
        accumulation order matches the original field order exactly so
        virtual-clock totals stay bit-identical.
        """
        c = self.constants
        s = self.scale
        ns = 0.0
        if charge.elements_scanned:
            ns += c.scan_ns_per_element * charge.elements_scanned * s
        if charge.elements_cracked:
            ns += c.crack_ns_per_element * charge.elements_cracked * s
        if charge.elements_merged:
            ns += c.merge_ns_per_element * charge.elements_merged * s
        if charge.elements_materialized:
            ns += (
                c.materialize_ns_per_element
                * charge.elements_materialized
                * s
            )
        if charge.elements_sorted:
            ns += self._sort_ns(charge.elements_sorted)
        if charge.comparisons:
            ns += c.probe_ns_per_comparison * charge.comparisons
        if charge.seeks:
            ns += c.seek_ns * charge.seeks
        if charge.pieces_touched:
            ns += c.piece_overhead_ns * charge.pieces_touched
        if charge.queries:
            ns += c.query_overhead_ns * charge.queries
        if charge.cracks:
            ns += c.crack_overhead_ns * charge.cracks
        return ns

    def _sort_ns(self, n: int) -> float:
        if n <= 0:
            return 0.0
        projected = n * self.scale
        return (
            self.constants.sort_ns_per_element_log
            * projected
            * math.log2(max(2.0, projected))
        )

    # ------------------------------------------------------------------
    # Convenience estimators used by planners / the holistic ranking
    # scheme.  These price *hypothetical* operations without running
    # them, which is exactly what an optimizer-style what-if call needs.
    # ------------------------------------------------------------------

    def scan_seconds(self, n: int) -> float:
        """Estimated cost of scan-selecting over ``n`` elements."""
        return self.seconds(CostCharge.for_scan(n) + CostCharge(queries=1))

    def sort_seconds(self, n: int) -> float:
        """Estimated cost of fully sorting ``n`` elements."""
        return self.seconds(CostCharge.for_sort(n))

    def crack_seconds(self, piece_size: int) -> float:
        """Estimated cost of one crack over a piece of ``piece_size``."""
        return self.seconds(CostCharge.for_crack(piece_size))

    def probe_seconds(self, n: int) -> float:
        """Estimated cost of one binary-search probe over ``n`` rows."""
        return self.seconds(CostCharge.for_binary_search(max(1, n)))

    def indexed_query_seconds(self, n: int) -> float:
        """Estimated cost of a range query on a fully sorted column."""
        probes = CostCharge.for_binary_search(max(1, n))
        probes += CostCharge.for_binary_search(max(1, n))
        probes += CostCharge(queries=1)
        return self.seconds(probes)


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
