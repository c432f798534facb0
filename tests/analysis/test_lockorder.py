"""Tests for the lock-discipline lint rule: the lock order of the tree.

Outside ``CrackerIndex`` a lock is a leaf -- its holder calls into no
other ``repro`` module and takes no other lock -- and nowhere is a
non-reentrant lock class held twice.  With one non-leaf lock that never
nests itself, no two locks can be taken in two orders.
"""

from __future__ import annotations

import ast
from pathlib import Path
from textwrap import dedent

import repro
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.astutil import import_aliases, resolve_call_name
from repro.analysis.lint import run_lint
from repro.analysis.rules import locks

SRC_ROOT = Path(repro.__file__).resolve().parent
FIXTURES = Path(__file__).parent / "fixtures"


def _findings(paths=None) -> list:
    return [
        finding
        for finding in run_lint(paths, root=SRC_ROOT)
        if finding.rule == locks.RULE_ID
    ]


def _snippet(tmp_path: Path, code: str) -> list:
    target = tmp_path / "snippet.py"
    target.write_text(dedent(code))
    return _findings([target])


def test_repo_latch_graph_is_acyclic(monkeypatch):
    """The tree's one non-leaf lock is ``CrackerIndex.lock``: the rule
    passes, and without the class's exemption every finding it makes
    is in the cracker index."""
    assert _findings() == []
    monkeypatch.setattr(locks, "OWNER", "NoSuchClass")
    flagged = {Path(f.path).relative_to(SRC_ROOT) for f in _findings()}
    assert flagged == {Path("cracking/index.py")}


def test_repo_locks_are_the_documented_set():
    """The only locks ``src/`` constructs are the index's monitor lock,
    the fault plan's two and the serving window former's; the clock,
    the tape and the worker pool hold none."""
    made = set()
    for path in sorted(SRC_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = import_aliases(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            ctor = resolve_call_name(node.value.func, aliases) or ""
            if ctor.startswith("threading.") and ctor[10:] in {
                "Lock", "RLock", "Condition", "Semaphore", "local",
            }:
                for target in node.targets:
                    name = ast.unparse(target)
                    made.add((str(path.relative_to(SRC_ROOT)), name))
    assert made == {
        ("cracking/index.py", "self.lock"),
        ("faults/plan.py", "self._lock"),
        ("faults/plan.py", "_install_lock"),
        ("serving/window.py", "self._lock"),
    }


def test_repo_holds_no_lock_class_twice():
    assert not [f for f in _findings() if "is taken while" in f.message]


def test_same_class_nesting_fails_the_check():
    """Two instances of one non-reentrant lock class, one taken inside
    the other: nothing orders them, so the rule flags it and the CLI
    gate fails."""
    fixture = FIXTURES / "bad_lock_self_nesting.py"
    (finding,) = _findings([fixture])
    assert "a second `lock` is taken while one is held" in finding.message
    assert finding.line == 19
    assert analysis_main(["--check", "--no-mypy", str(fixture)]) == 1


def test_cross_module_call_under_a_lock_fails_the_check():
    fixture = FIXTURES / "bad_lock_cross_module_call.py"
    (finding,) = _findings([fixture])
    assert "held across a call into another repro module" in finding.message
    assert "log() of repro.cracking.tape" in finding.message
    assert analysis_main(["--check", "--no-mypy", str(fixture)]) == 1


def test_a_call_out_through_a_helper_is_flagged_but_not_in_the_index(
    tmp_path,
):
    code = """
        import threading

        from repro import faults


        class {name}:
            def __init__(self):
                self.lock = threading.RLock()

            def outer(self):
                with self.lock:
                    self.helper()

            def helper(self):
                faults.trip("workers.perform")
        """
    (finding,) = _snippet(tmp_path, code.format(name="Holder"))
    assert "(repro.faults.trip)" in finding.message
    assert finding.message.endswith("(via helper)")
    assert _snippet(tmp_path, code.format(name="CrackerIndex")) == []


def test_synthetic_ab_ba_cycle_is_detected(tmp_path):
    findings = _snippet(
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
    assert [f.message.split(";")[0] for f in findings] == [
        "`b` is taken while `a` is held",
        "`a` is taken while `b` is held",
    ]


def test_leaf_locks_are_clean(tmp_path):
    """Locks taken one at a time, around their own module's helpers and
    builtin containers, are leaves."""
    findings = _snippet(
        tmp_path,
        """
        import threading
        from collections import deque

        class Pair:
            def __init__(self):
                self.a = threading.Lock()
                self.b = threading.Lock()
                self.items = deque()

            def one(self, item):
                with self.a:
                    self.items.append(item)
                    self.helper()

            def two(self):
                with self.b:
                    return self.items.popleft()

            def helper(self):
                return len(self.items)
        """,
    )
    assert findings == []


def test_cycle_through_a_call_is_detected(tmp_path):
    """Orders established in different functions still conflict."""
    findings = _snippet(
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
    assert len(findings) == 2
    assert all("(via take_" in f.message for f in findings)


def test_reentrant_rlock_is_not_a_same_class_nesting(tmp_path):
    code = """
        import threading

        class Box:
            def __init__(self):
                self.lock = threading.{kind}()

            def outer(self):
                with self.lock:
                    self.inner()

            def inner(self):
                with self.lock:
                    pass
        """
    assert _snippet(tmp_path, code.format(kind="RLock")) == []
    (finding,) = _snippet(tmp_path, code.format(kind="Lock"))
    assert "a second `lock`" in finding.message
