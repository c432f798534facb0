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
    assert not any(former._queues.values())


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


def test_closed_loop_validates_depth():
    with pytest.raises(ConfigError):
        CrossSessionWindowFormer(depth=0)
