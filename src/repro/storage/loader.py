"""Data generation.

The paper's table is ``R(A1..A10)`` with 10^8 uniform integers in
[1, 10^8] per column.  :func:`generate_uniform_column` reproduces that
distribution at any scale and :func:`build_paper_table` assembles the
relation; :func:`generate_uniform_float_column` feeds the float64
scenario of the mixed-workload bench.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.storage.column import Column
from repro.storage.dtypes import FLOAT64, INT64, ColumnType
from repro.storage.table import Table


def generate_uniform_column(
    name: str,
    rows: int,
    low: int = 1,
    high: int = 100_000_000,
    seed: int | None = None,
    ctype: ColumnType = INT64,
) -> Column:
    """A column of ``rows`` uniform integers in ``[low, high]``.

    This reproduces the paper's data distribution (defaults match the
    paper's domain).  ``int64`` is the default physical type to keep
    headroom at reduced scales.

    Raises:
        WorkloadError: if ``rows`` is negative or the range is empty.
    """
    if rows < 0:
        raise WorkloadError(f"rows must be >= 0, got {rows}")
    if high < low:
        raise WorkloadError(f"empty value range [{low}, {high}]")
    rng = np.random.default_rng(seed)
    values = rng.integers(low, high + 1, size=rows, dtype=np.int64)
    return Column(name, values, ctype)


def generate_uniform_float_column(
    name: str,
    rows: int,
    low: float = 1.0,
    high: float = 100_000_000.0,
    seed: int | None = None,
) -> Column:
    """A ``float64`` column of ``rows`` uniform reals in ``[low, high)``.

    The paper's experiments are integer-only; this generator feeds the
    mixed-workload bench's float64 scenario, which pushes real-valued
    columns through the same vectorized crack kernels.

    Raises:
        WorkloadError: if ``rows`` is negative or the range is empty.
    """
    if rows < 0:
        raise WorkloadError(f"rows must be >= 0, got {rows}")
    if high <= low:
        raise WorkloadError(f"empty value range [{low}, {high})")
    rng = np.random.default_rng(seed)
    values = rng.uniform(low, high, size=rows)
    return Column(name, values, FLOAT64)


def build_paper_table(
    rows: int,
    columns: int = 10,
    low: int = 1,
    high: int = 100_000_000,
    seed: int = 42,
    name: str = "R",
) -> Table:
    """The paper's relation ``R(A1..A10)`` at a chosen scale.

    Each attribute gets an independent uniform stream derived from
    ``seed`` so experiments are reproducible.

    Raises:
        WorkloadError: if ``columns`` is not positive.
    """
    if columns <= 0:
        raise WorkloadError(f"columns must be positive, got {columns}")
    table = Table(name)
    for i in range(1, columns + 1):
        column = generate_uniform_column(
            f"A{i}", rows, low=low, high=high, seed=seed + i
        )
        table.add_column(column)
    return table
