"""Unit tests for individual lint rules on handwritten snippets."""

from __future__ import annotations

from pathlib import Path
from textwrap import dedent

import repro
from repro.analysis.lint import LintContext, run_lint
from repro.analysis.rules import determinism, dtype
from repro.analysis.source import SourceFile

SRC_ROOT = Path(repro.__file__).resolve().parent


def _ctx(root: Path | None = None) -> LintContext:
    return LintContext.build(root if root is not None else SRC_ROOT)


def _src(code: str, path: str = "snippet.py") -> SourceFile:
    return SourceFile.parse(Path(path), text=dedent(code))


# -- determinism ---------------------------------------------------------


def test_determinism_resolves_import_aliases():
    src = _src(
        """
        from time import perf_counter as pc

        def f():
            return pc()
        """
    )
    assert len(determinism.check(src, _ctx())) == 1


def test_determinism_allows_seeded_generators():
    src = _src(
        """
        import numpy as np
        import random

        def f(seed):
            a = np.random.default_rng(seed)
            b = np.random.default_rng(seed=seed)
            c = random.Random(seed)
            return a, b, c
        """
    )
    assert determinism.check(src, _ctx()) == []


def test_determinism_flags_legacy_numpy_global():
    src = _src(
        """
        import numpy as np

        def f():
            return np.random.rand(3)
        """
    )
    assert len(determinism.check(src, _ctx())) == 1


def test_determinism_exempts_bench_workload_faults(tmp_path):
    code = "import time\n\ndef f():\n    return time.time()\n"
    for exempt_dir in ("bench", "workload", "faults"):
        target = tmp_path / exempt_dir / "mod.py"
        target.parent.mkdir(exist_ok=True)
        target.write_text(code)
        src = SourceFile.parse(target)
        assert determinism.check(src, _ctx(tmp_path)) == []
    hot = tmp_path / "cracking" / "mod.py"
    hot.parent.mkdir()
    hot.write_text(code)
    assert len(determinism.check(SourceFile.parse(hot), _ctx(tmp_path))) == 1


def test_wall_helpers_carry_the_only_time_waivers():
    """The audited escape hatch exists, is waived with reasons, and the
    rest of the tree does not import ``time`` wall calls at all."""
    clock = SRC_ROOT / "simtime" / "clock.py"
    src = SourceFile.parse(clock)
    raw = determinism.check(src, _ctx())
    assert raw, "clock.py should have waived determinism sites"
    assert all(src.is_waived("determinism", f.line) for f in raw)
    assert not src.reasonless


# -- dtype-promotion -----------------------------------------------------


def test_dtype_ceil_reassignment_clears_the_float_mark():
    src = _src(
        """
        import math
        import numpy as np

        def f(view, pivot: float):
            if view.dtype.kind == "i":
                pivot = math.ceil(pivot)
            return np.searchsorted(view, pivot)
        """
    )
    assert dtype.check(src, _ctx()) == []


def test_dtype_flags_float_needle_without_conversion():
    src = _src(
        """
        import numpy as np

        def f(view, pivot: float):
            return np.searchsorted(view, pivot)
        """
    )
    assert len(dtype.check(src, _ctx())) == 1


def test_dtype_flags_method_form_searchsorted():
    src = _src(
        """
        def f(store, bound):
            needle = float(bound)
            return store.searchsorted(needle)
        """
    )
    assert len(dtype.check(src, _ctx())) == 1


def test_dtype_compare_requires_int_array_evidence():
    src = _src(
        """
        import numpy as np

        def flagged(keys, pivot: float):
            ints = keys.astype(np.int64)
            return ints < pivot

        def not_flagged(remaining: float):
            return remaining <= 0
        """
    )
    findings = dtype.check(src, _ctx())
    assert len(findings) == 1
    assert findings[0].line < 8  # the evidence-backed compare only


# -- fault-coverage ------------------------------------------------------


def test_registry_parses_the_real_plan():
    ctx = _ctx()
    assert "workers.perform" in ctx.fault_points
    assert "serving.replay" in ctx.fault_points
    assert ctx.tamper_points <= set(ctx.fault_points)
    assert len(ctx.tamper_points) >= 1


def test_unused_registered_point_is_reported(tmp_path):
    plan_dir = tmp_path / "faults"
    plan_dir.mkdir()
    (plan_dir / "plan.py").write_text(
        dedent(
            """
            FAULT_POINTS: dict[str, str] = {
                "used.point": "exercised",
                "dead.point": "never tripped",
            }
            TAMPER_POINTS = frozenset()
            """
        )
    )
    (tmp_path / "mod.py").write_text(
        dedent(
            """
            from repro import faults

            def f():
                faults.trip("used.point")
            """
        )
    )
    findings = run_lint(
        [plan_dir / "plan.py", tmp_path / "mod.py"], root=tmp_path
    )
    dead = [f for f in findings if "dead.point" in f.message]
    assert len(dead) == 1
    assert dead[0].rule == "fault-coverage"
    assert dead[0].path.endswith("plan.py")


def test_direction_two_skipped_when_plan_not_in_scope(tmp_path):
    """Linting one file must not report the rest of the tree's call
    sites as missing."""
    target = tmp_path / "mod.py"
    target.write_text("def f():\n    return 1\n")
    findings = run_lint([target], root=SRC_ROOT)
    assert findings == []


# -- waivers -------------------------------------------------------------


def test_reasoned_waiver_suppresses_the_finding():
    findings = run_lint_on_snippet(
        """
        import time

        def f():
            return time.time()  # repro: allow[determinism] -- test snippet
        """
    )
    assert findings == []


def test_waiver_for_the_wrong_rule_does_not_suppress():
    """The finding stands, and the waiver, suppressing nothing, is
    reported as stale."""
    findings = run_lint_on_snippet(
        """
        import time

        def f():
            return time.time()  # repro: allow[dtype-promotion] -- wrong rule
        """
    )
    assert [f.rule for f in findings] == ["determinism", "waiver"]
    assert "suppresses no finding" in findings[1].message


def run_lint_on_snippet(code: str):
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "snippet.py"
        target.write_text(dedent(code))
        return run_lint([target], root=SRC_ROOT)
