"""Unit tests for data generation."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.storage.loader import build_paper_table, generate_uniform_column


def test_uniform_column_domain_and_size():
    column = generate_uniform_column("A", rows=5_000, seed=1)
    assert column.row_count == 5_000
    assert column.stats.min_value >= 1
    assert column.stats.max_value <= 100_000_000


def test_uniform_column_is_seed_deterministic():
    a = generate_uniform_column("A", rows=100, seed=9)
    b = generate_uniform_column("A", rows=100, seed=9)
    assert np.array_equal(a.values, b.values)


def test_uniform_column_roughly_uniform():
    column = generate_uniform_column("A", rows=50_000, seed=2)
    # Median of U[1, 1e8] should be near the middle.
    median = float(np.median(column.values))
    assert 4e7 < median < 6e7


def test_uniform_rejects_bad_parameters():
    with pytest.raises(WorkloadError):
        generate_uniform_column("A", rows=-1)
    with pytest.raises(WorkloadError):
        generate_uniform_column("A", rows=10, low=5, high=4)


def test_build_paper_table_schema():
    table = build_paper_table(rows=1_000, columns=4, seed=5)
    assert table.name == "R"
    assert table.column_names == ["A1", "A2", "A3", "A4"]
    assert table.row_count == 1_000
    # Independent streams per attribute.
    assert not np.array_equal(
        table.column("A1").values, table.column("A2").values
    )


def test_build_paper_table_rejects_zero_columns():
    with pytest.raises(WorkloadError):
        build_paper_table(rows=10, columns=0)
