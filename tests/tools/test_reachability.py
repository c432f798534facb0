"""The reachability sweep reports exactly the functions never entered.

A small fixture package is run under the sweep's hook: one root that
calls a decorated method, a property and a nested function, starts a
thread, and runs a subprocess that replaces itself with ``os.execv``
(as ``perfbench`` re-executes its workload processes).
"""

from __future__ import annotations

import importlib.util
import sys
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "reachability.py"

FIXTURE = textwrap.dedent('''
    import functools
    import os
    import subprocess
    import sys
    import threading


    def traced(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return fn(*args, **kwargs)

        return wrapper


    class Widget:
        @traced
        def decorated(self):
            return 1

        @traced
        def decorated_unused(self):
            return 2

        @property
        def size(self):
            return 3

        @property
        def unused_size(self):
            return 4

        def __repr__(self):
            return "Widget()"


    def outer():
        def inner():
            return 5

        def inner_unused():
            return 6

        return inner()


    def thread_only():
        return 7


    def child_only():
        os.execv(sys.executable, [
            sys.executable, "-c", "import fixpkg.mod as m; m.exec_only()",
        ])


    def exec_only():
        return 8


    def never():
        return 9


    def main():
        widget = Widget()
        widget.decorated()
        widget.size
        outer()
        thread = threading.Thread(target=thread_only)
        thread.start()
        thread.join()
        subprocess.run(
            [sys.executable, "-c", "import fixpkg.mod as m; m.child_only()"],
            check=True,
        )
''')


def _load_tool():
    spec = importlib.util.spec_from_file_location("reachability", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_sweep_reports_exactly_the_functions_never_entered(tmp_path):
    tool = _load_tool()
    src = tmp_path / "src"
    package = src / "fixpkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(FIXTURE)
    out = tmp_path / "reach"
    out.mkdir()
    root = [sys.executable, "-c", "import fixpkg.mod as m; m.main()"]

    seen, failed = tool.run_roots([root], src, tmp_path, out)

    assert failed == []
    defs = tool.list_defs(src)
    assert "fixpkg.mod.Widget.__repr__" not in {d.qualname for d in defs}
    assert {d.qualname for d in tool.unreached(defs, seen)} == {
        "fixpkg.mod.Widget.decorated_unused",
        "fixpkg.mod.Widget.unused_size",
        "fixpkg.mod.outer.inner_unused",
        "fixpkg.mod.never",
    }


def test_readers_file_names_only_functions_that_exist():
    tool = _load_tool()
    known = {d.qualname for d in tool.list_defs(tool.ROOT / "src")}
    assert set(tool.load_readers(tool.READERS)) <= known


def test_pinned_readers_name_perfbench_boundaries():
    """A function kept only because perfbench pins it is one that
    ``perfbench.layers.BOUNDARIES`` really names."""
    from perfbench.layers import BOUNDARIES

    tool = _load_tool()
    boundaries = {
        ".".join(filter(None, (module, owner, name)))
        for _layer, module, owner, names in BOUNDARIES
        for name in names
    }
    pinned = {
        qualname
        for qualname, reader in tool.load_readers(tool.READERS).items()
        if reader.startswith("pinned by perfbench/layers.py")
    }
    assert pinned
    assert pinned <= boundaries
