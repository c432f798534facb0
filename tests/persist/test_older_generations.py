"""Generations written by older versions restore.

Earlier layouts stored a per-piece sorted-flag array and a
``has_rowids`` mark per index, and strategy configs that named options
since retired.  A generation in that layout is written here through
:func:`repro.persist.format.write_generation` and must restore to the
same pivots, cuts and answers.  A retired option is dropped only when
it holds the one value it ever allowed; any other value, like an
unknown option, fails the generation with :class:`PersistError`, so
the restore walks back.
"""

import numpy as np
import pytest

from repro.engine.query import RangeQuery
from repro.errors import PersistError
from repro.persist import restore_snapshot
from repro.persist.format import write_generation
from repro.persist.snapshot import capture_state
from repro.simtime.clock import SimClock
from repro.storage.catalog import ColumnRef
from repro.storage.database import Database
from repro.storage.loader import build_paper_table

REFS = (ColumnRef("R", "A1"), ColumnRef("R", "A2"))
OPTIONS = {"holistic": {"seed": 5}, "adaptive": {}}


def _queries(seed: int) -> list[RangeQuery]:
    rng = np.random.default_rng(seed)
    return [
        RangeQuery(REFS[i % 2], low, low + 4e6)
        for i, low in enumerate(rng.uniform(0, 9.5e7, size=12).tolist())
    ]


def _engine(strategy: str):
    db = Database(clock=SimClock())
    db.add_table(build_paper_table(rows=4000, columns=2, seed=17))
    session = db.session(strategy, **OPTIONS[strategy])
    for query in _queries(3):
        session.run_query(query)
    return db, session


def _write_as_before(root, db, session, retired: dict) -> int:
    """Publish the engine's state in the older layout: a ``flags``
    array per index, ``has_rowids: false`` and ``retired`` options in
    the strategy config."""
    arrays, meta, _ = capture_state(db, session.strategy, session)
    for index_meta in meta["indexes"]:
        index_meta["has_rowids"] = False
        base = f"index/{index_meta['table']}/{index_meta['column']}"
        pieces = len(arrays[f"{base}/pivots"]) + 1
        arrays[f"{base}/flags"] = np.zeros(pieces, dtype=np.bool_)
    meta["strategy"]["config"].update(retired)
    return write_generation(root, arrays, meta)


@pytest.mark.parametrize(
    "strategy,retired",
    [
        ("holistic", {"action": "random_crack"}),
        ("holistic", {"latch_granularity": 1}),
        ("holistic", {"bootstrap_from_catalog": True}),
        ("adaptive", {"track_rowids": False}),
    ],
)
def test_older_layout_restores_to_the_same_state(
    tmp_path, strategy, retired
):
    db, session = _engine(strategy)
    _write_as_before(tmp_path, db, session, retired)

    restored = restore_snapshot(tmp_path)
    assert restored.fallback_generations == []
    for ref in REFS:
        live = session.strategy.indexes[ref].piece_map
        back = restored.strategy.indexes[ref].piece_map
        assert back.pivots() == live.pivots()
        assert back.cuts() == live.cuts()
        restored.strategy.indexes[ref].check_invariants()
    for query in _queries(11):
        expected = session.run_query(query)
        got = restored.session.run_query(query)
        assert got.count == expected.count
        assert np.array_equal(
            np.sort(got.values()), np.sort(expected.values())
        )
    assert restored.db.clock.now() == db.clock.now()


@pytest.mark.parametrize(
    "strategy,retired",
    [
        ("holistic", {"action": "crack_largest"}),
        ("holistic", {"latch_granularity": True}),
        ("holistic", {"bootstrap_from_catalog": False}),
        ("adaptive", {"track_rowids": True}),
        ("holistic", {"no_such_option": 3}),
    ],
)
def test_retired_option_with_another_value_fails_the_generation(
    tmp_path, strategy, retired
):
    db, session = _engine(strategy)
    _write_as_before(tmp_path, db, session, retired)
    (key,) = retired
    with pytest.raises(PersistError, match=f"config sets {key}="):
        restore_snapshot(tmp_path)


def test_unrestorable_option_walks_back_a_generation(tmp_path):
    db, session = _engine("holistic")
    good = _write_as_before(
        tmp_path, db, session, {"action": "random_crack"}
    )
    bad = _write_as_before(
        tmp_path, db, session, {"action": "crack_largest"}
    )

    restored = restore_snapshot(tmp_path)
    assert restored.generation == good
    assert restored.fallback_generations == [bad]
