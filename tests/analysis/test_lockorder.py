"""Tests for the static lock-order analyzer."""

from __future__ import annotations

from pathlib import Path
from textwrap import dedent

import repro
from repro.analysis import lockorder
from repro.analysis.__main__ import main as analysis_main

SRC_ROOT = Path(repro.__file__).resolve().parent


def _analyze_snippet(tmp_path: Path, code: str) -> dict:
    target = tmp_path / "snippet.py"
    target.write_text(dedent(code))
    return lockorder.analyze([target])


def test_repo_latch_graph_is_acyclic():
    report = lockorder.analyze()
    assert report["ok"], f"cycle: {report['cycle']}"
    assert report["cycle"] is None


def test_repo_graph_contains_the_documented_order():
    """The core of the deadlock argument: the index's monitor lock is
    taken first; the tape's counter lock and the clock's lane lock
    are leaves taken under it."""
    report = lockorder.analyze()
    edges = {(e["from"], e["to"]) for e in report["edges"]}
    assert ("CrackerIndex.lock", "CrackTape._lock") in edges
    assert ("CrackerIndex.lock", "Clock._lane_lock") in edges
    # and never the reverses
    assert ("CrackTape._lock", "CrackerIndex.lock") not in edges
    assert ("Clock._lane_lock", "CrackerIndex.lock") not in edges


def test_repo_holds_no_lock_class_twice():
    report = lockorder.analyze()
    assert report["same_class_nestings"] == []


def test_same_class_nesting_fails_the_check():
    """Two instances of one non-reentrant lock class, one taken inside
    the other: nothing orders them, so the analysis fails and so does
    the CLI gate."""
    fixture = Path(__file__).parent / "fixtures" / "bad_lock_self_nesting.py"
    report = lockorder.analyze([fixture])
    assert report["cycle"] is None
    assert [n["lock"] for n in report["same_class_nestings"]] == [
        "Account.lock"
    ]
    assert not report["ok"]
    assert analysis_main(["--check", "--no-mypy", str(fixture)]) == 1


def test_unresolved_sites_are_counted_not_hidden():
    report = lockorder.analyze()
    assert isinstance(report["unresolved_sites"], int)
    assert report["unresolved_sites"] > 0  # ExitStack etc. are opaque


def test_synthetic_ab_ba_cycle_is_detected(tmp_path):
    report = _analyze_snippet(
        tmp_path,
        """
        import threading

        class Pair:
            def __init__(self):
                self.a = threading.Lock()
                self.b = threading.Lock()

            def ab(self):
                with self.a:
                    with self.b:
                        pass

            def ba(self):
                with self.b:
                    with self.a:
                        pass
        """,
    )
    assert not report["ok"]
    assert report["cycle"] is not None
    assert set(report["cycle"]) >= {"Pair.a", "Pair.b"}


def test_consistent_order_is_clean(tmp_path):
    report = _analyze_snippet(
        tmp_path,
        """
        import threading

        class Pair:
            def __init__(self):
                self.a = threading.Lock()
                self.b = threading.Lock()

            def one(self):
                with self.a:
                    with self.b:
                        pass

            def two(self):
                with self.a:
                    self.helper()

            def helper(self):
                with self.b:
                    pass
        """,
    )
    assert report["ok"]
    edges = {(e["from"], e["to"]) for e in report["edges"]}
    assert edges == {("Pair.a", "Pair.b")}


def test_cycle_through_a_call_is_detected(tmp_path):
    """Orders established in different functions still conflict."""
    report = _analyze_snippet(
        tmp_path,
        """
        import threading

        class Pair:
            def __init__(self):
                self.a = threading.Lock()
                self.b = threading.Lock()

            def forward(self):
                with self.a:
                    self.take_b()

            def take_b(self):
                with self.b:
                    pass

            def backward(self):
                with self.b:
                    self.take_a()

            def take_a(self):
                with self.a:
                    pass
        """,
    )
    assert not report["ok"]


def test_contextmanager_held_at_yield_flows_to_callers(tmp_path):
    report = _analyze_snippet(
        tmp_path,
        """
        import threading
        from contextlib import contextmanager

        class Guard:
            def __init__(self):
                self.outer = threading.Lock()
                self.inner = threading.Lock()

            @contextmanager
            def scope(self):
                with self.outer:
                    yield

            def use(self):
                with self.scope():
                    with self.inner:
                        pass
        """,
    )
    assert report["ok"]
    edges = {(e["from"], e["to"]) for e in report["edges"]}
    assert ("Guard.outer", "Guard.inner") in edges


def test_reentrant_rlock_is_not_a_same_class_nesting(tmp_path):
    report = _analyze_snippet(
        tmp_path,
        """
        import threading

        class Box:
            def __init__(self):
                self.lock = threading.RLock()

            def outer(self):
                with self.lock:
                    self.inner()

            def inner(self):
                with self.lock:
                    pass
        """,
    )
    assert report["ok"]
    assert report["same_class_nestings"] == []
    assert "Box.lock" in report["reentrant"]
