"""Unit tests for pending-update delta stores."""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.storage.dtypes import INT64
from repro.storage.updates import PendingUpdates
from tests.conftest import base_holding


@pytest.fixture
def pending() -> PendingUpdates:
    return PendingUpdates(INT64, base=np.array([10, 20, 30]))


def test_fresh_delta_is_empty(pending):
    assert pending.pending_insert_count == 0
    assert pending.pending_delete_count == 0


def test_stage_inserts_keeps_values_sorted(pending):
    pending.stage_inserts([5, 1, 9])
    pending.stage_inserts([3])
    assert pending.pending_insert_count == 4
    assert pending.inserts_in_range(0, 100).tolist() == [1, 3, 5, 9]


def test_inserts_in_range_is_half_open(pending):
    pending.stage_inserts([1, 5, 9])
    assert pending.inserts_in_range(1, 9).tolist() == [1, 5]
    assert pending.inserts_in_range(2, 5).tolist() == []


def test_take_inserts_consumes_only_range(pending):
    pending.stage_inserts([1, 5, 9])
    taken = pending.take_inserts_in_range(4, 10)
    assert taken.tolist() == [5, 9]
    assert pending.inserts_in_range(0, 100).tolist() == [1]


def test_stage_deletes_requires_aligned_arrays(pending):
    with pytest.raises(SchemaError, match="align"):
        pending.stage_deletes([1, 2], [10])


def test_stage_deletes_refuses_a_fractional_position(pending):
    """A fractional position names no row: it is refused, not
    truncated to row 1, and nothing is staged."""
    with pytest.raises(SchemaError, match="fractional"):
        pending.stage_deletes([1.5], [20])
    assert pending.pending_delete_count == 0
    assert pending.delete_positions.tolist() == []
    assert pending.stage_deletes([1], [20]) == 1


def test_stage_deletes_refuses_a_boolean_position(pending):
    """A boolean names no row either: ``True`` is refused, not taken
    as row 1, and nothing is staged."""
    for positions in ([True], np.array([False, True])):
        with pytest.raises(SchemaError, match="boolean"):
            pending.stage_deletes(positions, [20] * len(positions))
    assert pending.pending_delete_count == 0
    assert pending.delete_positions.tolist() == []
    assert pending.stage_deletes([1], [20]) == 1


def test_stage_deletes_refuses_a_boolean_inside_a_position_list(pending):
    """A list mixing a boolean with integers converts to an int64
    array, so ``[True, 2]`` would stage rows 1 and 2: the boolean is
    refused element by element, and nothing is staged."""
    for positions in ([True, 2], (2, np.True_)):
        with pytest.raises(SchemaError, match="boolean"):
            pending.stage_deletes(positions, [20, 30])
    assert pending.pending_delete_count == 0
    assert pending.stage_deletes([1, 2], [20, 30]) == 2


def test_deletes_in_range(pending):
    pending.stage_deletes([0, 1, 2], [10, 20, 30])
    assert pending.deletes_in_range(15, 35).tolist() == [20, 30]


def test_take_deletes_consumes_range(pending):
    pending.stage_deletes([0, 1, 2], [10, 20, 30])
    taken = pending.take_deletes_in_range(5, 25)
    assert taken.tolist() == [10, 20]
    assert pending.deletes_in_range(0, 100).tolist() == [30]
    assert pending.pending_delete_count == 1


def test_clear_resets_everything(pending):
    pending.stage_inserts([1])
    pending.stage_deletes([0], [10])
    pending.clear()
    assert pending.pending_insert_count == pending.pending_delete_count == 0


def test_duplicate_values_kept_as_multiset(pending):
    pending.stage_inserts([7, 7, 7])
    assert pending.inserts_in_range(7, 8).tolist() == [7, 7, 7]
    taken = pending.take_inserts_in_range(7, 8)
    assert len(taken) == 3


def test_insert_dtype_coercion(pending):
    pending.stage_inserts(np.array([1.0, 2.0]))
    assert pending.inserts_in_range(0, 10).dtype == np.int64


# -- incremental staging -------------------------------------------------


def test_stage_inserts_stays_sorted_across_many_batches():
    import numpy as np

    from repro.storage.dtypes import INT64
    from repro.storage.updates import PendingUpdates

    pending = PendingUpdates(INT64, base=base_holding({}))
    rng = np.random.default_rng(5)
    staged = []
    for _ in range(12):
        batch = rng.integers(0, 1000, size=int(rng.integers(0, 9)))
        pending.stage_inserts(batch)
        staged.extend(batch.tolist())
    assert pending.insert_values.tolist() == sorted(staged)


def test_stage_deletes_keeps_positions_aligned_across_batches():
    """Interleaved delete batches must keep (position, value) pairs
    aligned under the sorted-by-value order, so range consumption
    removes matching pairs (regression: the old full re-sort appended
    positions out of order)."""
    import numpy as np

    from repro.storage.dtypes import INT64
    from repro.storage.updates import PendingUpdates

    pending = PendingUpdates(
        INT64, base=base_holding({10: 500, 11: 100, 12: 300, 13: 50})
    )
    pending.stage_deletes([10, 11], [500, 100])
    pending.stage_deletes([12, 13], [300, 50])
    assert pending.deleted_values.tolist() == [50, 100, 300, 500]
    assert pending.delete_positions.tolist() == [13, 11, 12, 10]
    taken = pending.take_deletes_in_range(90, 310)
    assert taken.tolist() == [100, 300]
    assert pending.delete_positions.tolist() == [13, 10]


def test_stage_deletes_dedupes_double_staged_positions():
    """Regression: staging the same base position twice before any
    merge used to double-count the removal during range consumption."""
    import numpy as np

    from repro.storage.dtypes import INT64
    from repro.storage.updates import PendingUpdates

    pending = PendingUpdates(INT64, base=base_holding({7: 40, 8: 60}))
    # Duplicate inside one batch.
    assert pending.stage_deletes([7, 7], [40, 40]) == 1
    # Duplicate across batches (plus one genuinely fresh position).
    assert pending.stage_deletes([7, 8], [40, 60]) == 1
    assert pending.pending_delete_count == 2
    assert pending.deleted_values.tolist() == [40, 60]
    assert pending.delete_positions.tolist() == [7, 8]
    taken = pending.take_deletes_in_range(0, 100)
    assert taken.tolist() == [40, 60]
    assert pending.pending_delete_count == 0


def test_store_arrays_are_copy_on_write():
    """A slice of the store taken before a write keeps its values: a
    select result's pending overlay holds such slices, so staging,
    consuming and clearing replace the store's arrays and never write
    into them."""
    base = np.concatenate([np.arange(1, 101, 2), [0, 41, 999]])
    pending = PendingUpdates(INT64, base=base)
    pending.stage_inserts(np.arange(0, 200, 2))
    pending.stage_deletes(np.arange(50), np.arange(1, 101, 2))
    held = [
        pending.insert_values,
        pending.deleted_values,
        pending.delete_positions,
        pending.inserts_in_range(20, 120),
        pending.deletes_in_range(20, 80),
    ]
    frozen = [array.copy() for array in held]
    pending.stage_inserts([-5, 30, 30, 31, 500])
    pending.stage_deletes([50, 51, 52], [0, 41, 999])
    pending.take_inserts_in_range(25, 60)
    pending.take_deletes_in_range(25, 60)
    pending.stage_inserts([40])
    pending.clear()
    pending.stage_deletes([1], [3])
    for array, before in zip(held, frozen):
        assert np.array_equal(array, before)


@pytest.mark.parametrize(
    "store, slots",
    [
        ([10, 20, 30, 40], [0, 0, 2, 2, 2, 4, 4]),  # ties, both ends
        ([10, 20, 30, 40], [0]),
        ([10, 20, 30, 40], [4]),
        ([10, 20, 30, 40], []),
        ([], [0, 0, 0]),  # into an empty store
        ([], []),
    ],
)
@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.float64])
def test_splice_equals_np_insert(store, slots, dtype):
    from repro.storage.updates import _splice

    store = np.array(store, dtype=dtype)
    slots = np.array(slots, dtype=np.intp)
    # Sorted fresh values that land at ``slots``: one below the entry
    # they go before, or past the end.
    fresh = np.array(
        [store[slot] - 1 if slot < len(store) else 999 for slot in slots],
        dtype=dtype,
    )
    assert store.searchsorted(fresh).tolist() == slots.tolist()
    merged = _splice(store, fresh)
    assert merged.dtype == dtype
    assert merged.tolist() == np.insert(store, slots, fresh).tolist()
    assert not np.shares_memory(merged, store)
