"""Acceptance tests for Exp1 (Figure 3 / Table 2).

These pin the paper's qualitative claims at tiny scale (PAPER.md,
"Evaluation shape"): the orderings, the idle-time monotonicity, and
the shape of the curves.
"""

import pytest

from repro.bench.exp1 import figure3_text, run_exp1, table2_text
from repro.config import TINY


@pytest.fixture(scope="module")
def result():
    return run_exp1(TINY, x_values=(10, 100), seed=42)


def test_strategy_ordering_matches_paper(result):
    """Table 2: Scan > Offline > Adaptive > Holistic at every X."""
    for x in result.x_values:
        scan = result.run_for("scan", x).total_s
        offline = result.run_for("offline", x).total_s
        adaptive = result.run_for("adaptive", x).total_s
        holistic = result.run_for("holistic", x).total_s
        assert scan > offline > adaptive > holistic


def test_holistic_improves_with_more_idle_time(result):
    """More refinements per window -> lower holistic total."""
    h10 = result.run_for("holistic", 10).total_s
    h100 = result.run_for("holistic", 100).total_s
    assert h100 < h10


def test_scan_and_adaptive_ignore_idle_time(result):
    """Neither baseline can exploit idle windows (paper §4)."""
    assert ("scan", None) in result.runs
    assert ("adaptive", None) in result.runs
    assert result.run_for("scan", 10) is result.run_for("scan", 100)


def test_scan_curve_is_linear(result):
    curve = result.run_for("scan", 10).curve
    per_query = curve[0]
    assert curve[99] == pytest.approx(100 * per_query, rel=0.02)


def test_cracking_curve_flattens(result):
    """Adaptive improves continuously: late queries are far cheaper."""
    curve = result.run_for("adaptive", 10).curve
    first_half = curve[len(curve) // 2]
    second_half = curve[-1] - first_half
    assert second_half < first_half / 2


def test_offline_pays_upfront_then_flat(result):
    curve = result.run_for("offline", 10).curve
    assert curve[0] > 0.5 * curve[-1]  # first query dominates
    tail_growth = curve[-1] - curve[len(curve) // 2]
    assert tail_growth < curve[0] / 100


def test_holistic_t_init_grows_with_x(result):
    t10 = result.run_for("holistic", 10).t_init_s
    t100 = result.run_for("holistic", 100).t_init_s
    assert 0 < t10 < t100


def test_offline_total_is_sort_time_minus_credit(result):
    """Offline ~ Time_sort - T_init + probes."""
    run = result.run_for("offline", 10)
    expected = result.sort_time_s - run.t_init_s
    assert run.total_s == pytest.approx(expected, rel=0.05)


def test_renderings_include_all_strategies(result):
    fig = figure3_text(result)
    table = table2_text(result)
    for name in ("scan", "offline", "adaptive", "holistic"):
        assert name in fig
        assert name.capitalize() in table
    assert "X=10" in table
