"""Unit tests for the cost model and projection scaling."""

import math

import pytest

from repro.config import scale_by_name, available_scales
from repro.errors import ConfigError
from repro.simtime.charge import CostCharge
from repro.simtime.model import PS_PER_S, CostModel, projection_scale


def _seconds(model: CostModel, charge: CostCharge) -> float:
    return model.picoseconds(charge) / PS_PER_S


def test_scan_pricing_matches_constants():
    model = CostModel()
    seconds = _seconds(model, CostCharge(elements_scanned=1_000_000))
    expected = 1_000_000 * model.constants.scan_ns_per_element / 1e9
    assert seconds == pytest.approx(expected)


def test_sort_pricing_uses_n_log_n():
    model = CostModel()
    n = 1 << 20
    seconds = _seconds(model, CostCharge(elements_sorted=n))
    expected = (
        model.constants.sort_ns_per_element_log * n * math.log2(n) / 1e9
    )
    assert seconds == pytest.approx(expected)


def test_scale_projects_element_counts_linearly():
    base = CostModel(scale=1.0)
    projected = CostModel(scale=100.0)
    charge = CostCharge(elements_scanned=10_000)
    assert _seconds(projected, charge) == pytest.approx(
        100.0 * _seconds(base, charge)
    )


def test_scale_projects_sort_superlinearly():
    base = CostModel(scale=1.0)
    projected = CostModel(scale=100.0)
    charge = CostCharge(elements_sorted=10_000)
    # N log N: 100x the elements must cost more than 100x the time.
    assert _seconds(projected, charge) > 100.0 * _seconds(base, charge)


def test_comparisons_are_not_scaled():
    base = CostModel(scale=1.0)
    projected = CostModel(scale=100.0)
    charge = CostCharge(comparisons=50, seeks=2, queries=1)
    assert _seconds(projected, charge) == pytest.approx(_seconds(base, charge))


def test_zero_charge_costs_nothing():
    assert _seconds(CostModel(), CostCharge()) == 0.0


def test_invalid_scale_rejected():
    with pytest.raises(ConfigError):
        CostModel(scale=0.0)
    with pytest.raises(ConfigError):
        CostModel(scale=-2.0)


def test_projection_scale_ratio():
    assert projection_scale(1_000_000, 100_000_000) == pytest.approx(100.0)


def test_projection_scale_rejects_nonpositive():
    with pytest.raises(ConfigError):
        projection_scale(0, 100)
    with pytest.raises(ConfigError):
        projection_scale(100, -1)


def test_indexed_query_beats_scan_at_any_size():
    model = CostModel()
    for n in (10_000, 1_000_000, 100_000_000):
        assert model.indexed_query_seconds(n) < model.scan_seconds(n)


def test_crack_estimate_is_linear_in_piece():
    model = CostModel()
    small = model.crack_seconds(1_000)
    large = model.crack_seconds(100_000)
    # Linear term dominates; overheads add a constant.
    assert large > 50 * small / 2


@pytest.mark.parametrize("name", available_scales())
def test_per_unit_prices_are_exact_picoseconds_at_every_shipped_scale(name):
    """Rounding each price to whole picoseconds loses nothing at the
    shipped scales and the paper's constants."""
    model = scale_by_name(name).cost_model()
    scale = int(model.scale)
    assert scale == model.scale
    assert (
        model.scan_ps, model.crack_ps, model.merge_ps, model.materialize_ps
    ) == (6746 * scale, 6500 * scale, 8000 * scale, 4000 * scale)
    assert (
        model.probe_ps, model.seek_ps, model.piece_ps, model.query_ps,
        model.crack_overhead_ps,
    ) == (150_000, 400_000, 200_000, 1_000_000, 500_000)
