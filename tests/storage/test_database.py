"""Unit tests for the database facade."""

import pytest

from repro.errors import ConfigError
from repro.simtime.clock import SimClock, WallClock
from repro.simtime.model import CostModel
from repro.storage.database import Database
from repro.storage.loader import build_paper_table


def test_database_defaults_to_sim_clock():
    db = Database()
    assert isinstance(db.clock, SimClock)
    assert db.cost_model is db.clock.model


def test_database_with_wall_clock_gets_default_model():
    db = Database(clock=WallClock())
    assert isinstance(db.cost_model, CostModel)


def test_database_with_explicit_model():
    model = CostModel(scale=100.0)
    db = Database(clock=SimClock(model))
    assert db.cost_model is model
    assert db.clock.model is model


def test_schema_shortcuts():
    db = Database()
    db.add_table(build_paper_table(rows=10, columns=2, seed=1))
    assert db.table("R").column_count == 2
    assert db.column("R", "A2").row_count == 10


def test_create_table_shortcut():
    db = Database()
    table = db.create_table("S")
    assert db.catalog.table("S") is table
    assert table.name == "S"


def test_session_factory_dispatches_strategies():
    db = Database()
    db.add_table(build_paper_table(rows=10, columns=1, seed=1))
    for name in ("scan", "adaptive", "offline", "online", "holistic"):
        session = db.session(name)
        assert session.strategy.name == name


def test_session_factory_rejects_unknown():
    db = Database()
    with pytest.raises(ConfigError, match="unknown strategy"):
        db.session("btree")
