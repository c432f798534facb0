"""Work is priced in one place.

Outside ``repro.simtime`` no module builds a ``CostCharge`` or reaches
a constructor on it: the engine reports each event through its clock's
named event methods, so every price formula lives in ``simtime``.
"""

from __future__ import annotations

import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

_SKIPPED = (
    tokenize.COMMENT,
    tokenize.STRING,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
)


def record_uses(source: str) -> list[int]:
    """Lines of ``source`` whose code calls ``CostCharge(`` or reaches
    an attribute of it (``CostCharge.for_crack``); comments, strings
    and imports do not count."""
    tokens = [
        token
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type not in _SKIPPED
    ]
    return [
        token.start[0]
        for token, following in zip(tokens, tokens[1:])
        if token.string == "CostCharge" and following.string in ("(", ".")
    ]


def records_outside_simtime() -> list[str]:
    """``path:line`` of each record use under ``src/repro`` outside
    ``simtime/``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        if relative.parts[0] == "simtime":
            continue
        source = path.read_text(encoding="utf-8")
        found += [f"{relative}:{line}" for line in record_uses(source)]
    return found


def test_no_module_outside_simtime_builds_a_charge_record():
    assert records_outside_simtime() == []


def test_the_scan_sees_calls_and_constructors_only():
    source = (
        "from repro.simtime import CostCharge\n"
        "# CostCharge(queries=1) in a comment\n"
        'doc = "CostCharge.for_crack(5)"\n'
        "clock.charge(CostCharge(queries=1))\n"
        "clock.charge(CostCharge.for_crack(5))\n"
        "kinds = (CostCharge, int)\n"
    )
    assert record_uses(source) == [4, 5]
