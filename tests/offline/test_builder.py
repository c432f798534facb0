"""Unit tests for the index builder."""

import pytest

from repro.offline.builder import IndexBuilder


@pytest.fixture
def builder(tiny_db) -> IndexBuilder:
    return IndexBuilder(tiny_db.catalog, tiny_db.clock)


def test_build_now_creates_usable_index(builder, a1):
    builder.build_now(a1)
    index = builder.index_for(a1)
    assert index is not None
    assert index.is_built


def test_index_for_unbuilt_returns_none(builder, a1):
    assert builder.index_for(a1) is None


def test_build_now_skips_already_built(builder, tiny_db, a1):
    builder.build_now(a1)
    index = builder.index_for(a1)
    before = tiny_db.clock.now()
    builder.build_now(a1)
    assert tiny_db.clock.now() == before
    assert builder.index_for(a1) is index


def test_builds_advance_the_clock(builder, tiny_db, a1):
    before = tiny_db.clock.now()
    builder.build_now(a1)
    assert tiny_db.clock.now() > before
