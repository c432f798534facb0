"""The self-healing restart path: walk-back, retry, pointer repair.

Each test corrupts a published snapshot the way
:func:`repro.persist.format._tamper_published` models media failure --
a torn array file, a flipped bit, a garbage ``CURRENT`` pointer -- and
asserts that :func:`restore_snapshot` still comes back with a valid
older generation (or the repaired current one), that the injected
faults are all credited as recovered, and that the restored engine
answers queries correctly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import faults
from repro.bench.oracle import ReferenceEngine
from repro.cracking.piecemap import PieceMap
from repro.engine.query import RangeQuery
from repro.errors import PersistError
from repro.faults import FaultPlan, engaged, flip_bit
from repro.persist import SnapshotManager, restore_snapshot
from repro.persist.format import (
    CURRENT_FILE,
    current_generation,
    generation_name,
    list_generations,
    quick_verify_manifest,
    read_manifest,
    write_generation,
)
from repro.persist.snapshot import capture_state
from repro.simtime.clock import SimClock
from repro.storage.catalog import ColumnRef
from repro.storage.database import Database
from repro.storage.loader import build_paper_table

from tests.conftest import ground_truth_count

ROWS = 8_000
REF = ColumnRef("R", "A1")


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    faults.uninstall()
    yield
    faults.uninstall()


def _fresh_session(seed: int = 42):
    db = Database(clock=SimClock())
    db.add_table(build_paper_table(rows=ROWS, columns=2, seed=seed))
    return db, db.session("holistic", seed=seed)


def _run_queries(session, count: int, low: float = 4e6, step: float = 9e6):
    for i in range(count):
        session.run_query(
            RangeQuery(REF, low + i * step, low + i * step + 5e6)
        )


def _two_generations(
    tmp_path, plan: FaultPlan | None, whole: bool = False
):
    """Checkpoint a clean generation, then a (possibly tampered) one:
    incremental (pending stores and the changed piece maps), or with
    ``whole`` written by a fresh manager, base columns included."""
    db, session = _fresh_session()
    manager = SnapshotManager(
        tmp_path, db, strategy=session.strategy, session=session,
        keep_history=True,
    )
    _run_queries(session, 4)
    clean = manager.checkpoint(extra={"mark": "clean"}).generation
    _run_queries(session, 4, low=6e6)
    if whole:
        manager = SnapshotManager(
            tmp_path, db, strategy=session.strategy, session=session,
            keep_history=True,
        )
    if plan is None:
        tampered = manager.checkpoint(extra={"mark": "tampered"}).generation
    else:
        with engaged(plan):
            try:
                tampered = manager.checkpoint(
                    extra={"mark": "tampered"}
                ).generation
            except PersistError:
                # A corrupted CURRENT pointer fails the checkpoint's
                # own read-back: the writer dies mid-publish.
                tampered = max(list_generations(tmp_path))
    return clean, tampered


def _assert_answers(restored) -> None:
    column = restored.db.column("R", "A1")
    result = restored.session.run_query(RangeQuery(REF, 2e7, 5e7))
    assert result.count == ground_truth_count(column, 2e7, 5e7)
    for index in restored.strategy.indexes.values():
        index.check_invariants()


# -- walk-back -----------------------------------------------------------


def test_torn_current_generation_walks_back(tmp_path):
    plan = FaultPlan()
    plan.arm("persist.publish.torn", at=0)
    clean, tampered = _two_generations(tmp_path, plan)
    with engaged(plan):
        restored = restore_snapshot(tmp_path)
    assert restored.generation == clean
    assert restored.fallback_generations == [tampered]
    assert restored.extra == {"mark": "clean"}
    assert plan.injected == 1
    assert plan.unrecovered() == []
    _assert_answers(restored)


def test_torn_snapshot_without_fallback_dies(tmp_path):
    plan = FaultPlan()
    plan.arm("persist.publish.torn", at=0)
    _two_generations(tmp_path, plan)
    with pytest.raises(PersistError, match="torn"):
        restore_snapshot(tmp_path, fallback=False)


def test_bitflip_evades_quick_check_until_lazy_verify(tmp_path):
    """The flip lands in a base column (the largest file a whole
    generation writes), which only a checksum reads back."""
    plan = FaultPlan()
    plan.arm("persist.publish.bitflip", at=0)
    clean, tampered = _two_generations(tmp_path, plan, whole=True)
    with engaged(plan):
        # A flipped payload bit is invisible to the structural check:
        # the corrupt generation restores...
        restored = restore_snapshot(tmp_path, verify="lazy")
        assert restored.generation == tampered
        assert restored.verification == "lazy"
        # ...until the background verifier rehashes it.
        assert restored.verifier is not None
        assert restored.verifier.wait(60.0) is False
        assert restored.verifier.done and not restored.verifier.ok
        # Re-restore with the proven-bad generation excluded.
        healthy = restore_snapshot(
            tmp_path, verify="eager", exclude=[tampered]
        )
    assert healthy.generation == clean
    assert healthy.verification == "eager"
    assert plan.unrecovered() == []
    _assert_answers(healthy)


def test_eager_verify_walks_past_the_bitflip(tmp_path):
    plan = FaultPlan()
    plan.arm("persist.publish.bitflip", at=0)
    clean, tampered = _two_generations(tmp_path, plan, whole=True)
    with engaged(plan):
        restored = restore_snapshot(tmp_path, verify="eager")
    assert restored.generation == clean
    assert restored.fallback_generations == [tampered]
    assert plan.unrecovered() == []


def test_corrupt_pending_deletes_walk_back(tmp_path):
    """A select subtracts the pending deletes in range without looking
    for them in its result, so the store re-checks them against the
    base column on restore.  A ``delval`` file whose values are not
    the rows' (bit rot the structural check cannot see) fails that
    check and the restore falls back a generation instead of answering
    with a wrong count."""
    db, session = _fresh_session()
    manager = SnapshotManager(
        tmp_path, db, strategy=session.strategy, session=session,
        keep_history=True,
    )
    column = db.column("R", "A1")
    store = db.table("R").updates_for("A1")
    _run_queries(session, 4)
    store.stage_deletes([3, 5], column.values[[3, 5]])
    clean = manager.checkpoint(extra={"mark": "clean"}).generation
    store.stage_deletes([8], column.values[[8]])
    newest = manager.checkpoint(extra={"mark": "newest"}).generation
    entry = read_manifest(tmp_path, newest)["arrays"]["pending/R/A1/delval"]
    assert int(entry["generation"]) == newest
    path = tmp_path / entry["file"]
    rotted = np.load(path) + 1
    with path.open("wb") as handle:
        np.save(handle, rotted)
    restored = restore_snapshot(tmp_path)
    assert restored.generation == clean
    assert restored.fallback_generations == [newest]
    assert restored.extra == {"mark": "clean"}
    restored_store = restored.db.table("R").updates_for("A1")
    assert sorted(restored_store.delete_positions.tolist()) == [3, 5]
    values = np.delete(column.values, [3, 5])
    result = restored.session.run_query(RangeQuery(REF, 2e7, 5e7))
    assert result.count == np.count_nonzero((values >= 2e7) & (values < 5e7))
    with pytest.raises(PersistError, match="pending/R/A1"):
        restore_snapshot(tmp_path, fallback=False)


def test_swapped_pivots_walk_back(tmp_path):
    """Two pivots swapped in place keep the file's size, so only a
    checksum sees them; without one the piece map's own check does,
    and the restore falls back a generation however it verifies."""
    clean, newest = _two_generations(tmp_path, None)
    entry = read_manifest(tmp_path, newest)["arrays"]["index/R/A1/pivots"]
    assert int(entry["generation"]) == newest
    path = tmp_path / entry["file"]
    pivots = np.load(path)
    pivots[[0, 1]] = pivots[[1, 0]]
    with path.open("wb") as handle:
        np.save(handle, pivots)

    with pytest.raises(PersistError, match="index/R/A1"):
        restore_snapshot(tmp_path, fallback=False)
    for verify in (False, "lazy", "eager"):
        restored = restore_snapshot(tmp_path, verify=verify)
        assert restored.generation == clean
        assert restored.fallback_generations == [newest]
        if restored.verifier is not None:
            assert restored.verifier.wait(60.0) is True
        _assert_answers(restored)


def _cuts_file(tmp_path, generation: int):
    """The file of ``generation``'s own stored ``R.A1`` cuts."""
    entry = read_manifest(tmp_path, generation)["arrays"]["index/R/A1/cuts"]
    assert int(entry["generation"]) == generation
    return tmp_path / entry["file"]


def _assert_walked_back(tmp_path, clean: int, newest: int) -> None:
    """Restoring ``newest`` alone fails on its index; a restore without
    checksums walks back to ``clean`` and answers like the reference."""
    with pytest.raises(PersistError, match="index/R/A1"):
        restore_snapshot(tmp_path, fallback=False)
    restored = restore_snapshot(tmp_path)
    assert restored.generation == clean
    assert restored.fallback_generations == [newest]
    reference = ReferenceEngine(restored.db, [REF])
    for low in (2e7, 4.5e6, 6.1e7):
        result = restored.session.run_query(RangeQuery(REF, low, low + 1e7))
        assert np.array_equal(
            np.sort(result.values()), reference.query(REF, low, low + 1e7)
        )
    _assert_answers(restored)


def test_cut_moved_inside_its_piece_walks_back(tmp_path):
    """A cut moved by one row that keeps the piece map well formed:
    ``PieceMap.from_state`` accepts it, but the sorted column puts that
    pivot one row away, so the generation is corrupt."""
    clean, newest = _two_generations(tmp_path, None)
    path = _cuts_file(tmp_path, newest)
    cuts = np.load(path)
    cuts[np.flatnonzero(np.diff(cuts) >= 2)[0]] += 1
    pivots = np.load(str(path).replace("cuts", "pivots"))
    PieceMap.from_state(ROWS, pivots, cuts, pivots.dtype)
    with path.open("wb") as handle:
        np.save(handle, cuts)
    _assert_walked_back(tmp_path, clean, newest)


def test_flipped_cut_walks_back_before_any_checksum(tmp_path):
    """A bit flipped in a stored cut is caught by the restore itself,
    before any checksum is computed."""
    clean, newest = _two_generations(tmp_path, None)
    path = _cuts_file(tmp_path, newest)
    flip_bit(path, offset=path.stat().st_size - 8)  # the last cut's low byte
    _assert_walked_back(tmp_path, clean, newest)


def test_unknown_clock_counter_walks_back(tmp_path):
    """A clock total that names a counter this version does not have
    is corrupt, like an unknown option."""
    db, session = _fresh_session()
    _run_queries(session, 4)
    arrays, meta, _ = capture_state(db, session.strategy, session)
    clean = write_generation(tmp_path, arrays, meta)
    arrays, meta, _ = capture_state(db, session.strategy, session)
    meta["clock"]["total_charge"]["no_such_counter"] = 1
    newest = write_generation(tmp_path, arrays, meta)

    with pytest.raises(PersistError, match="clock state"):
        restore_snapshot(tmp_path, fallback=False)
    restored = restore_snapshot(tmp_path)
    assert restored.generation == clean
    assert restored.fallback_generations == [newest]
    assert restored.db.clock.now() == db.clock.now()


#: Per strategy, what a generation can lack: a meta key (a path of
#: keys into the meta) or an array of the manifest.
_MISSING = {
    "holistic": [
        ("model_scale",),
        ("clock",),
        ("tables",),
        ("tables", 0, "columns", 0, "row_count"),
        ("indexes",),
        ("indexes", 0, "copy_charged"),
        ("tapes", "__shared__"),
        ("tapes", "__shared__", "counts", "query"),
        ("monitor",),
        ("ranking",),
        ("kernel",),
        ("kernel", "idle_windows"),
        ("session", "queries_answered"),
        "column/R/A1",
        "pending/R/A1/ins",
        "pending/R/A1/delpos",
        "pending/R/A1/delval",
        "index/R/A1/pivots",
        "index/R/A1/cuts",
    ],
    "adaptive": [("tapes", "R/A1"), ("tapes", "R/A1", "seen")],
}


@pytest.mark.parametrize("strategy", sorted(_MISSING))
def test_every_missing_key_walks_back(tmp_path, strategy):
    """A generation lacking any meta key or array the restore reads is
    corrupt: restoring it alone raises ``PersistError``, never a
    ``KeyError``, and a restore walks back past every such generation
    to the intact one."""
    db = Database(clock=SimClock())
    db.add_table(build_paper_table(rows=ROWS, columns=2, seed=42))
    session = db.session(strategy)
    _run_queries(session, 4)
    db.table("R").updates_for("A1").stage_inserts([5e6 + 1])
    arrays, meta, _ = capture_state(db, session.strategy, session)
    clean = write_generation(tmp_path, arrays, meta)
    broken = []
    for missing in _MISSING[strategy]:
        arrays, meta, _ = capture_state(db, session.strategy, session)
        if isinstance(missing, str):
            del arrays[missing]
        else:
            *path, key = missing
            holder = meta
            for step in path:
                holder = holder[step]
            del holder[key]
        broken.append(write_generation(tmp_path, arrays, meta))
        with pytest.raises(PersistError):
            restore_snapshot(tmp_path, fallback=False)
    restored = restore_snapshot(tmp_path)
    assert restored.generation == clean
    assert restored.fallback_generations == broken[::-1]
    assert restored.db.clock.now() == db.clock.now()
    _assert_answers(restored)


def test_background_verifier_passes_on_a_clean_snapshot(tmp_path):
    clean, newest = _two_generations(tmp_path, None)
    restored = restore_snapshot(tmp_path, verify="lazy")
    assert restored.generation == newest
    assert restored.verifier.wait(60.0) is True
    assert restored.verifier.done and restored.verifier.ok


# -- pointer repair ------------------------------------------------------


def test_garbage_pointer_is_repaired_on_restore(tmp_path):
    plan = FaultPlan()
    plan.arm("persist.publish.pointer", at=0)
    clean, tampered = _two_generations(tmp_path, plan)
    assert (tmp_path / CURRENT_FILE).read_text() == "gen-garbage\n"
    with engaged(plan):
        restored = restore_snapshot(tmp_path)
    # The newest structurally-valid generation wins, and the pointer
    # is healed in place...
    assert restored.generation == tampered
    assert (tmp_path / CURRENT_FILE).read_text() == (
        generation_name(tampered) + "\n"
    )
    assert current_generation(tmp_path) == tampered
    assert plan.unrecovered() == []
    _assert_answers(restored)
    # ...so the restored engine can checkpoint normally again.
    manager = SnapshotManager(
        tmp_path,
        restored.db,
        strategy=restored.strategy,
        session=restored.session,
        keep_history=True,
    )
    result = manager.checkpoint()
    assert result.generation == tampered + 1
    assert current_generation(tmp_path) == result.generation


# -- transient restore faults --------------------------------------------


def test_transient_restore_fault_is_retried(tmp_path):
    clean, newest = _two_generations(tmp_path, None)
    plan = FaultPlan()
    plan.arm("persist.restore", at=0)
    with engaged(plan):
        restored = restore_snapshot(tmp_path)
    # The injected fault hit the first restore attempt; the retry
    # succeeded without walking back a generation.
    assert restored.generation == newest
    assert restored.fallback_generations == []
    assert plan.injected == 1
    assert plan.unrecovered() == []
    _assert_answers(restored)


# -- quick_verify_manifest unit ------------------------------------------


def test_quick_verify_catches_torn_and_missing_files(tmp_path):
    _, newest = _two_generations(tmp_path, None)
    manifest = read_manifest(tmp_path, newest)
    quick_verify_manifest(tmp_path, manifest)  # clean: no error
    entry = max(
        manifest["arrays"].values(), key=lambda e: int(e["nbytes"])
    )
    path = tmp_path / entry["file"]
    payload = path.read_bytes()
    path.write_bytes(payload[: len(payload) // 2])
    with pytest.raises(PersistError, match="torn"):
        quick_verify_manifest(tmp_path, manifest)
    path.unlink()
    with pytest.raises(PersistError, match="missing"):
        quick_verify_manifest(tmp_path, manifest)
    path.write_bytes(payload)
    quick_verify_manifest(tmp_path, manifest)  # healed: clean again
