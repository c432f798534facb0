"""Unit tests for the runtime latch witness."""

from __future__ import annotations

import threading

import pytest

from repro.analysis import witness
from repro.cracking.concurrency import (
    LatchedCrackerAccess,
    PieceLatchTable,
    ReadWriteLatch,
)
from repro.cracking.index import CrackerIndex
from repro.errors import ConcurrencyError
from repro.simtime.clock import SimClock


@pytest.fixture(autouse=True)
def _no_leaked_witness():
    yield
    witness.disable()


def _latch(group: str, key: int | str | None = None) -> ReadWriteLatch:
    return ReadWriteLatch(witness_group=group, witness_key=key)


# -- lifecycle -----------------------------------------------------------


def test_enable_is_exclusive():
    with witness.enabled():
        with pytest.raises(ConcurrencyError):
            witness.enable()
    assert witness.active() is None


def test_hooks_are_free_when_disabled(small_column):
    # No witness: latch traffic and mutations must not record anything
    # or raise -- the production path.
    latch = _latch("latch.table")
    latch.acquire_write()
    latch.release_write()
    index = CrackerIndex(small_column, clock=SimClock())
    index.ensure_cuts([5e7])
    assert witness.active() is None


# -- ordering ------------------------------------------------------------


def test_consistent_order_learns_edges_without_violations():
    table, piece = _latch("latch.table"), _latch("latch.piece", key=0)
    with witness.enabled() as w:
        table.acquire_read()
        piece.acquire_write()
        piece.release_write()
        table.release_read()
    assert w.violations == []
    assert ("latch.table", "latch.piece") in w.order_edges()
    assert w.acquires == 2 and w.releases == 2


def test_order_inversion_is_reported():
    table, piece = _latch("latch.table"), _latch("latch.piece", key=0)
    with witness.enabled() as w:
        table.acquire_read()
        piece.acquire_write()
        piece.release_write()
        table.release_read()
        # now the other way round: piece -> table inverts
        piece.acquire_write()
        table.acquire_read()
        table.release_read()
        piece.release_write()
    kinds = [v.kind for v in w.violations]
    assert kinds == ["order-inversion"]
    assert "latch.table" in w.violations[0].detail


def test_strict_mode_raises_at_the_violation_site():
    table, piece = _latch("latch.table"), _latch("latch.piece", key=0)
    with witness.enabled(strict=True):
        table.acquire_read()
        piece.acquire_write()
        piece.release_write()
        table.release_read()
        piece.acquire_write()
        with pytest.raises(witness.WitnessError):
            table.acquire_read()
        table.release_read()
        piece.release_write()


def test_ascending_piece_keys_are_legal_descending_are_not():
    low, high = _latch("latch.piece", key=1), _latch("latch.piece", key=2)
    with witness.enabled() as w:
        low.acquire_write()
        high.acquire_write()  # ascending: fine
        high.release_write()
        low.release_write()
        assert w.violations == []
        high.acquire_write()
        low.acquire_write()  # descending: the sorted-key protocol broke
        low.release_write()
        high.release_write()
    assert [v.kind for v in w.violations] == ["key-order"]


def test_table_latches_stack_in_sorted_name_order():
    """Distinct indexes' table latches may nest (the serving frontend's
    multi-column windows) but only in ascending key order."""
    a1 = _latch("latch.table", key="R.A1")
    a2 = _latch("latch.table", key="R.A2")
    with witness.enabled() as w:
        a1.acquire_write()
        a2.acquire_write()  # sorted column order: fine
        a2.release_write()
        a1.release_write()
        assert w.violations == []
        a2.acquire_write()
        a1.acquire_write()  # reversed: flagged
        a1.release_write()
        a2.release_write()
    assert [v.kind for v in w.violations] == ["key-order"]


def test_untagged_latches_group_together():
    a, b = ReadWriteLatch(), ReadWriteLatch()
    with witness.enabled() as w:
        a.acquire_read()
        b.acquire_read()
        b.release_read()
        a.release_read()
    assert [v.kind for v in w.violations] == ["order-inversion"]
    assert witness.UNTAGGED_GROUP in w.violations[0].detail


def test_violations_record_the_holding_thread():
    table, piece = _latch("latch.table"), _latch("latch.piece", key=0)
    with witness.enabled() as w:
        table.acquire_read()
        piece.acquire_write()
        piece.release_write()
        table.release_read()

        def invert():
            piece.acquire_write()
            table.acquire_read()
            table.release_read()
            piece.release_write()

        worker = threading.Thread(target=invert, name="inverter")
        worker.start()
        worker.join()
    assert [v.thread for v in w.violations] == ["inverter"]
    assert w.violations[0].held[0].group == "latch.piece"


# -- mutation coverage ---------------------------------------------------


def _armed_index(column) -> tuple[CrackerIndex, PieceLatchTable]:
    index = CrackerIndex(column, clock=SimClock())
    table = PieceLatchTable()
    witness.arm(index, table)
    return index, table


def test_unlatched_mutation_is_reported(small_column):
    """The pass tuning workers make, without its piece latches."""
    with witness.enabled() as w:
        index, _ = _armed_index(small_column)
        index.ensure_cuts([5e7])
    assert any(v.kind == "unlatched-mutation" for v in w.violations)
    assert w.mutation_checks > 0


def test_latched_access_passes_mutation_checks(small_column):
    with witness.enabled() as w:
        index, table = _armed_index(small_column)
        access = LatchedCrackerAccess(index, table)
        assert access.crack_value(5e7)
        result = access.select_range(2e7, 6e7)
        assert result.count > 0
    assert w.violations == []
    assert w.mutation_checks > 0


def test_worker_batch_is_checked_against_its_piece_latches(small_column):
    """A tuning batch runs the window's physical pass under the piece
    contract, not the table latch a window holds: it passes under the
    write latches of the pieces it splits and trips without them."""
    with witness.enabled() as w:
        index, table = _armed_index(small_column)
        access = LatchedCrackerAccess(index, table)
        assert access.crack_value([2e7, 5e7, 5.5e7, 8e7]) == 4
        assert w.violations == []
        index.ensure_cuts([3e7, 6e7])
    assert [v.kind for v in w.violations] == ["unlatched-mutation"]
    assert "without its write latch" in w.violations[0].detail


def test_table_exclusive_covers_whole_index_mutations(small_column):
    with witness.enabled() as w:
        index, table = _armed_index(small_column)
        index.ensure_cut(5e7)  # build something to rebuild
        w.violations.clear()
        with table.exclusive():
            index.rebuild()
    assert w.violations == []


def test_unarmed_indexes_are_not_checked(small_column):
    with witness.enabled() as w:
        index = CrackerIndex(small_column, clock=SimClock())
        index.ensure_cuts([5e7])  # never armed: no violation
    assert w.violations == []
    assert w.mutation_checks == 0


def test_disarm_stops_enforcement(small_column):
    with witness.enabled() as w:
        index, _ = _armed_index(small_column)
        witness.disarm(index)
        index.ensure_cuts([5e7])
    assert w.violations == []


def test_summary_is_json_ready(small_column):
    with witness.enabled() as w:
        index, table = _armed_index(small_column)
        access = LatchedCrackerAccess(index, table)
        access.crack_value(4e7)
    summary = w.summary()
    assert summary["violations"] == []
    assert summary["acquires"] == summary["releases"]
    assert any("latch" in edge for edge in summary["order_edges"])
