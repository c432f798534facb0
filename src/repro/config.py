"""Experiment scales and shared run configuration.

The paper runs at 10^8 rows per column; pure Python cannot do that
interactively, so experiments run at a reduced ``rows`` while the
virtual clock projects costs back to paper scale
(:data:`~repro.simtime.costs.PAPER_COLUMN_ROWS`).
tests/simtime/test_projection.py checks that the projection is sound
for uniform data.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.simtime.costs import PAPER_COLUMN_ROWS, PAPER_QUERY_COUNT
from repro.simtime.model import CostModel, projection_scale


@dataclass(frozen=True, slots=True)
class ScaleSpec:
    """One experiment scale.

    Attributes:
        name: scale label.
        rows: physical rows per column in this run.
        query_count: queries per experiment.
    """

    name: str
    rows: int
    query_count: int

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.query_count <= 0:
            raise ConfigError(
                f"scale {self.name!r}: rows and query_count must be "
                "positive"
            )

    @property
    def projection(self) -> float:
        """Cost-model scale factor projecting this run to paper scale."""
        return projection_scale(self.rows, PAPER_COLUMN_ROWS)

    def cost_model(self) -> CostModel:
        """A paper-calibrated cost model projecting from this scale."""
        return CostModel(scale=self.projection)


TINY = ScaleSpec("tiny", rows=10_000, query_count=200)
SMALL = ScaleSpec("small", rows=100_000, query_count=1_000)
MEDIUM = ScaleSpec("medium", rows=1_000_000, query_count=10_000)
PAPER = ScaleSpec(
    "paper", rows=PAPER_COLUMN_ROWS, query_count=PAPER_QUERY_COUNT
)

_SCALES = {spec.name: spec for spec in (TINY, SMALL, MEDIUM, PAPER)}


def scale_by_name(name: str) -> ScaleSpec:
    """Look up a scale by name.

    Raises:
        ConfigError: on an unknown scale name.
    """
    try:
        return _SCALES[name.lower()]
    except KeyError:
        supported = ", ".join(sorted(_SCALES))
        raise ConfigError(
            f"unknown scale {name!r}; supported: {supported}"
        ) from None


def available_scales() -> list[str]:
    return sorted(_SCALES)
