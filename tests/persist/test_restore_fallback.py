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
from repro.engine.query import RangeQuery
from repro.errors import PersistError
from repro.faults import FaultPlan, engaged
from repro.persist import SnapshotManager, restore_snapshot
from repro.persist.format import (
    CURRENT_FILE,
    current_generation,
    generation_name,
    list_generations,
    quick_verify_manifest,
    read_manifest,
)
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


def _two_generations(tmp_path, plan: FaultPlan | None):
    """Checkpoint a clean generation, then a (possibly tampered) one."""
    db, session = _fresh_session()
    manager = SnapshotManager(
        tmp_path, db, strategy=session.strategy, session=session,
        keep_history=True,
    )
    _run_queries(session, 4)
    clean = manager.checkpoint(extra={"mark": "clean"}).generation
    _run_queries(session, 4, low=6e6)
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
    plan = FaultPlan()
    plan.arm("persist.publish.bitflip", at=0)
    clean, tampered = _two_generations(tmp_path, plan)
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
    clean, tampered = _two_generations(tmp_path, plan)
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
