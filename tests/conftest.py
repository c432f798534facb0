"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import TINY
from repro.simtime.clock import SimClock
from repro.simtime.model import CostModel
from repro.storage.catalog import ColumnRef
from repro.storage.column import Column
from repro.storage.database import Database
from repro.storage.loader import build_paper_table, generate_uniform_column


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def small_column() -> Column:
    """10k uniform ints in the paper's domain, fixed seed."""
    return generate_uniform_column("A1", rows=10_000, seed=7)


@pytest.fixture
def tiny_column() -> Column:
    """100 values, convenient for exhaustive checks."""
    return generate_uniform_column("A1", rows=100, low=1, high=1_000, seed=3)


@pytest.fixture
def sim_clock() -> SimClock:
    return SimClock(CostModel())


@pytest.fixture
def tiny_db() -> Database:
    """A database with R(A1..A3) at 10k rows on a projected SimClock."""
    db = Database(clock=SimClock(TINY.cost_model()))
    db.add_table(build_paper_table(rows=10_000, columns=3, seed=42))
    return db


@pytest.fixture
def a1() -> ColumnRef:
    return ColumnRef("R", "A1")


def ground_truth_count(column: Column, low: float, high: float) -> int:
    """Reference result count for a range select."""
    values = column.values
    return int(np.count_nonzero((values >= low) & (values < high)))
