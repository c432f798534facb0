"""Calibration tests: the paper's anchor numbers are model fixed points.

``simtime/costs.py`` derives each cost constant from a published
number; these tests pin the derivations so a constant change that
breaks the reproduction fails loudly.
"""

import pytest

from repro.simtime.charge import CostCharge
from repro.simtime.costs import (
    PAPER_ADAPTIVE_TOTAL_S,
    PAPER_COLUMN_ROWS,
    PAPER_EXP2_IDLE_S,
    PAPER_OFFLINE_TOTAL_S,
    PAPER_QUERY_COUNT,
    PAPER_SCAN_TOTAL_S,
    PAPER_SORT_S,
)
from repro.simtime.model import PS_PER_S, CostModel


def _seconds(model: CostModel, charge: CostCharge) -> float:
    return model.picoseconds(charge) / PS_PER_S


@pytest.fixture(scope="module")
def model() -> CostModel:
    return CostModel()


def test_anchor_scan_total(model):
    """10^4 scan queries over 10^8 rows cost ~6746 s (Table 2)."""
    per_query = model.scan_seconds(PAPER_COLUMN_ROWS)
    total = per_query * PAPER_QUERY_COUNT
    assert total == pytest.approx(PAPER_SCAN_TOTAL_S, rel=0.01)


def test_anchor_sort_time(model):
    """Sorting one 10^8-row column costs ~28.4 s (Figure 3)."""
    assert model.sort_seconds(PAPER_COLUMN_ROWS) == pytest.approx(
        PAPER_SORT_S, rel=0.01
    )


def test_anchor_offline_total(model):
    """Sort + 10^4 indexed queries cost ~28.5 s (Table 2)."""
    total = model.sort_seconds(PAPER_COLUMN_ROWS)
    total += PAPER_QUERY_COUNT * model.indexed_query_seconds(
        PAPER_COLUMN_ROWS
    )
    assert total == pytest.approx(PAPER_OFFLINE_TOTAL_S, rel=0.02)


def test_anchor_exp2_idle_window(model):
    """Two full sorts match the paper's ~55 s Exp2 idle budget."""
    two_sorts = 2 * model.sort_seconds(PAPER_COLUMN_ROWS)
    assert two_sorts == pytest.approx(PAPER_EXP2_IDLE_S, rel=0.05)


def test_anchor_adaptive_total_analytic(model):
    """Cracking's total is ~13 s (Table 2): analytic approximation.

    Random-bound cracking touches ~2N/(k+1) elements at query k, so
    the total element movement is ~2N*(H(Q+1)-1); adding the one-off
    column copy and per-query overheads must land near 13 s.
    """
    n, q = PAPER_COLUMN_ROWS, PAPER_QUERY_COUNT
    harmonic = sum(1.0 / k for k in range(2, q + 2))
    moved = 2.0 * n * harmonic
    total = _seconds(
        model,
        CostCharge(
            elements_cracked=int(moved),
            elements_materialized=n,  # first-touch column copy
            queries=q,
            cracks=2 * q,
            seeks=2 * q,
        )
    )
    assert total == pytest.approx(PAPER_ADAPTIVE_TOTAL_S, rel=0.15)


def test_reduced_scale_projects_to_same_anchors():
    """A 10^6-row run projected x100 must price like 10^8 rows."""
    reduced = CostModel(scale=100.0)
    rows = PAPER_COLUMN_ROWS // 100
    assert reduced.scan_seconds(rows) == pytest.approx(
        CostModel().scan_seconds(PAPER_COLUMN_ROWS), rel=0.01
    )
    assert reduced.sort_seconds(rows) == pytest.approx(
        PAPER_SORT_S, rel=0.01
    )
