"""Acceptance tests for Figures 1 and 2 and the ablation benches."""

import pytest

from repro.bench.ablations import (
    ablation_batch_tuning,
    ablation_cache_target,
    ablation_policies,
    ablation_stochastic,
    ablation_text,
)
from repro.bench.cracking_demo import DEMO_VALUES, figure2_text
from repro.bench.timeline import figure1_text
from repro.config import TINY


def test_figure2_walkthrough_is_consistent():
    text = figure2_text()
    assert "initial column" in text
    assert "after Q1" in text
    assert "after Q2" in text
    # All original values survive the cracks.
    for value in DEMO_VALUES:
        assert f"{value:>2d}" in text


def test_figure2_custom_queries():
    text = figure2_text(queries=[(3, 9)])
    assert "after Q1" in text
    assert "after Q2" not in text


def test_figure1_timeline_covers_all_strategies():
    text = figure1_text(TINY, seed=1)
    for name in ("offline", "online", "adaptive", "holistic"):
        assert f"[{name}]" in text
    assert "queries 1-" in text


def test_figure1_holistic_reports_tuning():
    text = figure1_text(TINY, seed=1)
    holistic_part = text.split("[holistic]")[1]
    assert "auxiliary actions" in holistic_part
    assert "tuning-driven" in holistic_part


def test_figure1_offline_reports_build():
    text = figure1_text(TINY, seed=1)
    offline_part = text.split("[offline]")[1].split("[")[0]
    assert "full index" in offline_part or "built 1" in offline_part


@pytest.mark.slow
def test_ablation_stochastic_shape():
    rows = ablation_stochastic(TINY, seed=1)
    totals = {row.label: row.total_response_s for row in rows}
    # [10]'s claim: data-driven variants beat plain cracking on
    # sequential workloads.
    assert totals["ddr"] < totals["standard"]
    assert totals["ddc"] < totals["standard"]


@pytest.mark.slow
def test_ablation_policies_runs_all(tiny_db):
    rows = ablation_policies(TINY, seed=1, idle_actions=50)
    assert [r.label for r in rows] == [
        "round_robin",
        "ranked",
        "weighted_random",
    ]
    assert all(r.total_response_s > 0 for r in rows)


@pytest.mark.slow
def test_ablation_cache_target_coarse_pieces_hurt():
    """A3: stopping refinement at very coarse pieces must cost more
    than refining down to cache-sized ones."""
    rows = ablation_cache_target(TINY, seed=42, idle_actions=500)
    assert rows[-1].total_response_s >= rows[0].total_response_s


@pytest.mark.slow
def test_ablation_batch_tuning_spends_less_idle_time():
    """A4: refining a piece for all its pivots "in one go" spends less
    virtual idle time than one pivot at a time, for the same action
    budget."""
    rows = ablation_batch_tuning(TINY, seed=42, idle_actions=300)
    idle = {row.label: float(row.detail.split()[3]) for row in rows}
    assert idle["batched"] < idle["sequential"]


def test_ablation_text_renders():
    from repro.bench.ablations import AblationRow

    text = ablation_text(
        "title", [AblationRow("x", 1.5, "note")]
    )
    assert "title" in text and "1.500" in text and "note" in text
