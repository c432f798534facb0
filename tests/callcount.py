"""Python-level call counts: the measure of the tier-1 call budgets.

A call budget bounds how many Python functions one operation enters.
The count is exact, machine-independent and reads no clock, so a
budget guards a hot path's structure where a wall-clock reading on a
noisy machine cannot; how fast the path runs stays ``perfbench``'s
question.
"""

from __future__ import annotations

import sys


class Calls(int):
    """A call count that also holds the ``module:qualname`` of every
    function entered, in order, so a failed budget prints the path."""

    path: list[str]

    def __new__(cls, path: list[str]) -> "Calls":
        calls = super().__new__(cls, len(path))
        calls.path = path
        return calls

    def __repr__(self) -> str:
        return f"{int(self)} calls: " + " > ".join(self.path)


def count_calls(function, *args) -> tuple[Calls, object]:
    """The Python-level calls ``function(*args)`` makes, itself
    included, and what it returns."""
    path: list[str] = []

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            # ``co_qualname`` is new in Python 3.11.
            name = getattr(code, "co_qualname", code.co_name)
            path.append(f"{frame.f_globals.get('__name__')}:{name}")

    sys.setprofile(profile)
    try:
        result = function(*args)
    finally:
        sys.setprofile(None)
    return Calls(path), result
