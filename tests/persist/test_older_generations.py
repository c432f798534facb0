"""Generations written by older versions restore.

Earlier layouts stored no cost-model scale (such a generation
restores at the default scale 1), a per-piece sorted-flag array and a
``has_rowids`` mark per index, a range histogram and the ``recent``
query timestamps per monitored column, the holistic kernel's boost
count, the clock's time in float seconds, one record array per
crack-tape field (``tape/<scope>/*``, with or without
``int_pivots``), and strategy configs that named options since
retired.  A generation in
that layout is written here through
:func:`repro.persist.format.write_generation` and must restore to the
same pivots, cuts, tape counts and answers.  A retired option is dropped only
when it holds the one value it ever allowed (for the no-idle boost's
two options: while either is 0, so the boost was off); any other value,
like an unknown option, fails the generation with
:class:`PersistError`, so the restore walks back.
"""

import numpy as np
import pytest

from repro.config import TINY
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
    """Publish the engine's state in the older layout: no
    ``model_scale``, a ``flags`` array per index, ``has_rowids:
    false``, a monitor histogram and ``recent`` timestamps per column,
    a kernel boost count, ``retired`` options in the strategy config
    and the clock's ``now`` in float seconds."""
    arrays, meta, _ = capture_state(db, session.strategy, session)
    del meta["model_scale"]
    meta["clock"]["now"] = meta["clock"].pop("now_ps") / 10**12
    for index_meta in meta["indexes"]:
        index_meta["has_rowids"] = False
        base = f"index/{index_meta['table']}/{index_meta['column']}"
        pieces = len(arrays[f"{base}/pivots"]) + 1
        arrays[f"{base}/flags"] = np.zeros(pieces, dtype=np.bool_)
    if meta["kernel"] is not None:
        meta["kernel"]["boost_cracks_applied"] = 0
        for entry in meta["monitor"]["columns"]:
            entry["histogram"] = [entry["query_count"]] + [0] * 63
            entry["histogram_low"] = 1.0
            entry["histogram_width"] = 1562500.0
            entry["recent"] = [0.001 * i for i in range(entry["query_count"])]
    meta["strategy"]["config"].update(retired)
    return write_generation(root, arrays, meta)


@pytest.mark.parametrize(
    "strategy,retired",
    [
        ("holistic", {"action": "random_crack"}),
        ("holistic", {"latch_granularity": 1}),
        ("holistic", {"bootstrap_from_catalog": True}),
        ("adaptive", {"track_rowids": False}),
        ("holistic", {"hot_column_threshold": 0, "hot_boost_cracks": 1}),
        ("holistic", {"hot_column_threshold": 0, "hot_boost_cracks": 5}),
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
    assert restored.db.cost_model.scale == 1.0
    if strategy == "holistic":
        assert (
            restored.strategy.monitor.export_state()
            == session.strategy.monitor.export_state()
        )


def test_generation_without_model_scale_restores_at_scale_one(tmp_path):
    """A generation written before the cost model's scale was stored
    restores at the default scale, whatever its writer priced at."""
    db = Database(clock=SimClock(TINY.cost_model()))
    db.add_table(build_paper_table(rows=4000, columns=2, seed=17))
    session = db.session("holistic", **OPTIONS["holistic"])
    for query in _queries(3):
        session.run_query(query)
    arrays, meta, _ = capture_state(db, session.strategy, session)
    assert meta["model_scale"] == TINY.projection
    del meta["model_scale"]
    write_generation(tmp_path, arrays, meta)

    restored = restore_snapshot(tmp_path)
    assert restored.fallback_generations == []
    assert restored.db.cost_model.scale == 1.0
    assert restored.db.clock.now() == db.clock.now()
    for ref in REFS:
        assert (
            restored.strategy.indexes[ref].piece_map.cuts()
            == session.strategy.indexes[ref].piece_map.cuts()
        )


@pytest.mark.parametrize(
    "strategy,retired",
    [
        ("holistic", {"action": "crack_largest"}),
        ("holistic", {"latch_granularity": True}),
        ("holistic", {"bootstrap_from_catalog": False}),
        ("adaptive", {"track_rowids": True}),
        ("holistic", {"no_such_option": 3}),
        ("holistic", {"hot_column_threshold": 3, "hot_boost_cracks": 2}),
    ],
)
def test_retired_option_with_another_value_fails_the_generation(
    tmp_path, strategy, retired
):
    db, session = _engine(strategy)
    _write_as_before(tmp_path, db, session, retired)
    key = next(iter(retired))
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


def _tape_states(strategy) -> dict:
    """Each tape's exported counters, keyed by its snapshot scope."""
    if strategy.name == "holistic":
        return {"shared": strategy.tape.export_state()}
    return {
        repr(ref): index.tape.export_state()
        for ref, index in strategy.indexes.items()
    }


@pytest.mark.parametrize("int_pivots", [True, False])
@pytest.mark.parametrize("strategy", ["holistic", "adaptive"])
def test_tape_record_arrays_of_an_older_generation_are_ignored(
    tmp_path, strategy, int_pivots
):
    """Older generations stored every crack-tape record as arrays next
    to the tape's meta counters; a restore takes the counters and
    ignores the arrays, whatever they hold."""
    db, session = _engine(strategy)
    arrays, meta, _ = capture_state(db, session.strategy, session)
    records = 3
    for scope in meta["tapes"]:
        base = f"tape/{scope}"
        arrays[f"{base}/timestamps"] = np.linspace(0.1, 0.3, records)
        arrays[f"{base}/pivots"] = np.full(records, np.nan)
        if int_pivots:
            arrays[f"{base}/int_pivots"] = np.arange(records, dtype=np.int64)
        arrays[f"{base}/positions"] = np.arange(records, dtype=np.int64)
        arrays[f"{base}/piece_sizes"] = np.full(records, 9, dtype=np.int64)
        arrays[f"{base}/workers"] = np.full(records, -1, dtype=np.int64)
        arrays[f"{base}/origins"] = np.array(["query"] * records)
    write_generation(tmp_path, arrays, meta)

    restored = restore_snapshot(tmp_path)
    assert restored.fallback_generations == []
    stored = [n for n in restored.manifest["arrays"] if n.startswith("tape/")]
    assert len(stored) == len(meta["tapes"]) * (7 if int_pivots else 6)
    assert _tape_states(restored.strategy) == _tape_states(session.strategy)
    assert restored.strategy.indexes.keys() == session.strategy.indexes.keys()
    for ref in REFS:
        live = session.strategy.indexes[ref]
        back = restored.strategy.indexes[ref]
        assert back.tape.count() == live.tape.count() > 0
        assert back.piece_map.pivots() == live.piece_map.pivots()
        assert back.piece_map.cuts() == live.piece_map.cuts()
