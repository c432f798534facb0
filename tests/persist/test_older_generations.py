"""Generations in an older layout are refused.

A snapshot is read by the code that writes it.  The format check
refuses a generation written in format 1 or 2, and a generation whose
strategy config names an option this version does not have -- one an
older version had and retired, at the value it allowed, or one no
version had -- is corrupt.  Either raises :class:`PersistError`, so a
restore walks back to the newest generation it can read.
"""

import json

import numpy as np
import pytest

from repro.engine.query import RangeQuery
from repro.errors import PersistError
from repro.persist import restore_snapshot
from repro.persist.format import (
    MANIFEST_FILE,
    generation_name,
    write_generation,
)
from repro.persist.snapshot import capture_state
from repro.simtime.clock import SimClock
from repro.storage.catalog import ColumnRef
from repro.storage.database import Database
from repro.storage.loader import build_paper_table

REFS = (ColumnRef("R", "A1"), ColumnRef("R", "A2"))
OPTIONS = {"holistic": {"seed": 5}, "adaptive": {}}


def _engine(strategy: str):
    db = Database(clock=SimClock())
    db.add_table(build_paper_table(rows=4000, columns=2, seed=17))
    session = db.session(strategy, **OPTIONS[strategy])
    rng = np.random.default_rng(3)
    for i, low in enumerate(rng.uniform(0, 9.5e7, size=12).tolist()):
        session.run_query(RangeQuery(REFS[i % 2], low, low + 4e6))
    return db, session


def _publish(root, db, session, options: dict | None = None) -> int:
    """Publish the engine's state with ``options`` added to its
    strategy config."""
    arrays, meta, _ = capture_state(db, session.strategy, session)
    meta["strategy"]["config"].update(options or {})
    return write_generation(root, arrays, meta)


@pytest.mark.parametrize("version", [1, 2])
def test_older_format_generation_is_refused_and_walked_back(
    tmp_path, version
):
    """Formats 1 and 2 also stored each cracker column, which format 3
    rebuilds from its base column; a generation in either is refused
    however whole it is."""
    db, session = _engine("holistic")
    good = _publish(tmp_path, db, session)
    arrays, meta, _ = capture_state(db, session.strategy, session)
    for ref, index in session.strategy.indexes.items():
        arrays[f"index/{ref.table}/{ref.column}/values"] = index.values
    old = write_generation(tmp_path, arrays, meta)
    path = tmp_path / generation_name(old) / MANIFEST_FILE
    manifest = json.loads(path.read_text())
    manifest["format_version"] = version
    path.write_text(json.dumps(manifest))

    with pytest.raises(
        PersistError, match=f"format {version} is not supported"
    ):
        restore_snapshot(tmp_path, fallback=False)
    restored = restore_snapshot(tmp_path)
    assert restored.generation == good
    assert restored.fallback_generations == [old]
    for ref in REFS:
        live = session.strategy.indexes[ref].piece_map
        back = restored.strategy.indexes[ref].piece_map
        assert (back.pivots(), back.cuts()) == (live.pivots(), live.cuts())


@pytest.mark.parametrize(
    "strategy,option",
    [
        ("holistic", {"action": "random_crack"}),
        ("holistic", {"latch_granularity": 1}),
        ("holistic", {"bootstrap_from_catalog": True}),
        ("holistic", {"hot_column_threshold": 0}),
        ("holistic", {"hot_boost_cracks": 1}),
        ("adaptive", {"track_rowids": False}),
        ("adaptive", {"stop_piece_size": 1024}),
        ("holistic", {"no_such_option": 3}),
    ],
)
def test_retired_option_fails_the_generation(tmp_path, strategy, option):
    db, session = _engine(strategy)
    _publish(tmp_path, db, session, option)
    key = next(iter(option))
    with pytest.raises(PersistError, match=f"config sets {key}="):
        restore_snapshot(tmp_path)


def test_unrestorable_option_walks_back_a_generation(tmp_path):
    db, session = _engine("holistic")
    good = _publish(tmp_path, db, session)
    bad = _publish(tmp_path, db, session, {"action": "random_crack"})

    restored = restore_snapshot(tmp_path)
    assert restored.generation == good
    assert restored.fallback_generations == [bad]
