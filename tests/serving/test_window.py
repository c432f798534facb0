"""Unit tests for the cross-session window former."""

import pytest

from repro.engine.query import RangeQuery
from repro.errors import ConfigError
from repro.serving.window import CrossSessionWindowFormer
from repro.storage.catalog import ColumnRef

A1 = ColumnRef("R", "A1")


def _queries(n, base=0.0):
    return [RangeQuery(A1, base + i, base + i + 0.5) for i in range(n)]


def test_closed_loop_takes_depth_per_client_round_robin():
    former = CrossSessionWindowFormer(depth=2)
    former.admit("a", _queries(5))
    former.admit("b", _queries(3, base=100))
    window = former.next_window()
    assert [(e.client, e.sequence) for e in window] == [
        ("a", 0), ("a", 1), ("b", 0), ("b", 1),
    ]
    window = former.next_window()
    assert [(e.client, e.sequence) for e in window] == [
        ("a", 2), ("a", 3), ("b", 2),
    ]
    window = former.next_window()
    assert [(e.client, e.sequence) for e in window] == [("a", 4)]
    assert former.next_window() == []
    assert former.pending_count == 0


def test_closed_loop_max_window_caps_total():
    former = CrossSessionWindowFormer(depth=4, max_window=5)
    former.admit("a", _queries(4))
    former.admit("b", _queries(4, base=50))
    former.admit("c", _queries(4, base=90))
    window = former.next_window()
    assert len(window) == 5
    assert [e.client for e in window] == ["a", "a", "a", "a", "b"]


def test_closed_loop_preserves_per_client_order():
    former = CrossSessionWindowFormer(depth=3)
    queries = _queries(7)
    former.admit("a", queries)
    served = []
    while True:
        window = former.next_window()
        if not window:
            break
        served.extend(e.query for e in window)
    assert served == queries


def test_closed_loop_bounded_windows_rotate_fairly():
    """Regression: with max_window set, every window used to restart
    from the first-admitted client, starving later ones while earlier
    queues stayed non-empty."""
    former = CrossSessionWindowFormer(depth=4, max_window=4)
    former.admit("a", _queries(8))
    former.admit("b", _queries(8, base=50))
    former.admit("c", _queries(8, base=90))
    served_by = [
        {e.client for e in former.next_window()} for _ in range(3)
    ]
    # Three bounded windows must reach all three clients.
    assert set().union(*served_by) == {"a", "b", "c"}
    # And per-client order is still intact after the rotation.
    drained = []
    while True:
        window = former.next_window()
        if not window:
            break
        drained.extend(window)
    sequences: dict[str, list[int]] = {}
    for entry in drained:
        sequences.setdefault(entry.client, []).append(entry.sequence)
    for client, seen in sequences.items():
        assert seen == sorted(seen)


def test_closed_loop_validates_depth():
    with pytest.raises(ConfigError):
        CrossSessionWindowFormer(depth=0)
    with pytest.raises(ConfigError):
        CrossSessionWindowFormer(max_window=0)
