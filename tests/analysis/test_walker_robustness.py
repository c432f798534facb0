"""Property tests: the analyses never crash on arbitrary valid modules.

The rules (the lock-discipline rule among them) walk whatever AST they
are given; a shape they did not anticipate must degrade to "no
finding", never an exception.  Modules are grown
from a grammar of statement fragments that deliberately mixes in the
constructs the analyses care about (acquires, withs, searchsorted,
time calls, decorators, yields) at every nesting depth.
"""

from __future__ import annotations

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.analysis.lint import LintContext, run_lint
from repro.analysis.rules import locks
from repro.analysis.source import SourceFile

SRC_ROOT = Path(repro.__file__).resolve().parent

_SIMPLE = st.sampled_from(
    [
        "pass",
        "x = 1",
        "x = float(y)",
        "y = x",
        "del x",
        "x += 1",
        "x: float = 2.5",
        "latch.acquire_read()",
        "latch.acquire_write()",
        "latch.release_read()",
        "latch.release_write()",
        "ok = latches.try_acquire(owner, 0, mode)",
        "np.searchsorted(store, x)",
        "store.searchsorted(float(x))",
        "t = time.time()",
        "r = random.random()",
        "g = np.random.default_rng()",
        "faults.trip('workers.perform')",
        "faults.trip(name)",
        "obj.method(a, b=c)",
        "yield x",
        "return",
        "raise ValueError('boom')",
        "x = a if b else c",
        "x = [i for i in items]",
        "global x",
        "x = lambda: latch.acquire_read()",
        "import threading",
        "from contextlib import contextmanager",
    ]
)

_HEADERS = st.sampled_from(
    [
        "if cond:",
        "while cond:",
        "for i in items:",
        "with lock:",
        "with table.write_pieces(keys) as stalled:",
        "with a, b:",
        "try:",
        "def inner(p: float):",
        "async def ainner():",
        "class Inner:",
    ]
)


def _indent(lines: list[str], by: str = "    ") -> list[str]:
    return [by + line for line in lines]


@st.composite
def _block(draw, depth: int) -> list[str]:
    lines: list[str] = []
    for _ in range(draw(st.integers(1, 3))):
        if depth > 0 and draw(st.booleans()):
            header = draw(_HEADERS)
            body = _indent(draw(_block(depth - 1)))
            lines.append(header)
            lines.extend(body)
            if header == "try:":
                lines.append("finally:")
                lines.extend(_indent(draw(_block(depth - 1))))
        else:
            lines.append(draw(_SIMPLE))
    return lines


@st.composite
def _module(draw) -> str:
    preamble = [
        "import time",
        "import random",
        "import threading",
        "import numpy as np",
        "from contextlib import contextmanager",
        "from repro import faults",
    ]
    decorator = draw(
        st.sampled_from(["", "@contextmanager", "@_synchronized"])
    )
    body = _indent(draw(_block(2)))
    lines = preamble + ([decorator] if decorator else [])
    lines.append("def grown(latch, latches, table, store, x, y):")
    lines.extend(body)
    return "\n".join(lines) + "\n"


def _valid(code: str) -> bool:
    try:
        compile(code, "<grown>", "exec")
        return True
    except SyntaxError:
        return False


@settings(max_examples=80, deadline=None)
@given(_module())
def test_lint_never_crashes_on_grown_modules(tmp_path_factory, code):
    if not _valid(code):
        return  # e.g. 'yield' outside a function shape, 'return' at depth
    tmp = tmp_path_factory.mktemp("grown")
    target = tmp / "grown.py"
    target.write_text(code)
    findings = run_lint([target], root=SRC_ROOT)
    for finding in findings:
        assert finding.rule
        assert finding.line >= 0
        assert finding.format()


@settings(max_examples=80, deadline=None)
@given(_module())
def test_lockorder_never_crashes_on_grown_modules(tmp_path_factory, code):
    """The lock-discipline rule alone: every finding it makes on a
    grown module names a real line."""
    if not _valid(code):
        return
    tmp = tmp_path_factory.mktemp("grown")
    target = tmp / "grown.py"
    target.write_text(code)
    ctx = LintContext.build(SRC_ROOT)
    findings = locks.check(SourceFile.parse(target), ctx)
    for finding in findings:
        assert finding.rule == locks.RULE_ID
        assert 0 < finding.line <= code.count("\n")


@settings(max_examples=60, deadline=None)
@given(st.text(max_size=400))
def test_sourcefile_parse_rejects_gracefully(tmp_path_factory, text):
    """Arbitrary text either parses or comes back as a parse finding --
    load_sources never raises."""
    from repro.analysis.source import load_sources

    tmp = tmp_path_factory.mktemp("junk")
    target = tmp / "junk.py"
    target.write_text(text, encoding="utf-8")
    sources, findings = load_sources([target])
    assert len(sources) + len(findings) >= 1


def test_sourcefile_waiver_parse_is_total():
    src = SourceFile.parse(
        Path("inline.py"),
        text=(
            "x = 1  # repro: allow[determinism] -- fine\n"
            "y = 2  # repro: allow[dtype-promotion]\n"
            "z = 3  # repro: allow[]\n"
        ),
    )
    assert src.is_waived("determinism", 1)
    assert src.reasonless == [(2, "dtype-promotion")]
