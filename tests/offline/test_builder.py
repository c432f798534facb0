"""Unit tests for the budgeted index builder."""

import pytest

from repro.offline.builder import IndexBuilder
from repro.storage.catalog import ColumnRef


@pytest.fixture
def builder(tiny_db) -> IndexBuilder:
    return IndexBuilder(tiny_db.catalog, tiny_db.clock)


def _refs(*columns: str) -> list[ColumnRef]:
    return [ColumnRef("R", c) for c in columns]


def test_build_now_creates_usable_index(builder, a1):
    record = builder.build_now(a1)
    assert record.cost_s > 0
    assert record.finished_at >= record.started_at
    index = builder.index_for(a1)
    assert index is not None
    assert index.is_built


def test_index_for_unbuilt_returns_none(builder, a1):
    assert builder.index_for(a1) is None


def test_build_within_unlimited_builds_all(builder):
    report = builder.build_within(_refs("A1", "A2", "A3"))
    assert len(report.built) == 3
    assert report.skipped == []


def test_build_within_budget_skips_what_does_not_fit(builder, tiny_db):
    one_sort = tiny_db.cost_model.sort_seconds(
        tiny_db.column("R", "A1").row_count
    )
    report = builder.build_within(
        _refs("A1", "A2", "A3"), budget_s=2 * one_sort
    )
    assert len(report.built) == 2
    assert len(report.skipped) == 1
    assert report.skipped[0].column == "A3"
    assert sum(r.cost_s for r in report.built) <= 2 * one_sort * 1.01


def test_build_within_skips_already_built(builder):
    builder.build_now(ColumnRef("R", "A1"))
    report = builder.build_within(_refs("A1", "A2"))
    assert [r.ref.column for r in report.built] == ["A2"]


def test_builds_advance_the_clock(builder, tiny_db, a1):
    before = tiny_db.clock.now()
    builder.build_now(a1)
    assert tiny_db.clock.now() > before
