"""Python-level call counts: the measure of the tier-1 call budgets.

A call budget bounds how many Python functions one operation enters.
The count is exact, machine-independent and reads no clock, so a
budget guards a hot path's structure where a wall-clock reading on a
noisy machine cannot; how fast the path runs stays ``perfbench``'s
question.
"""

from __future__ import annotations

import gc
import sys
from collections import Counter


class Calls(int):
    """A call count that also holds how often each function
    (``module:qualname``) was entered, so a failed budget prints where
    the calls went."""

    functions: Counter[str]

    def __new__(cls, path: list[str]) -> "Calls":
        calls = super().__new__(cls, len(path))
        calls.functions = Counter(path)
        return calls

    def __repr__(self) -> str:
        return f"{int(self)} calls: " + ", ".join(
            f"{name} x{count}"
            for name, count in self.functions.most_common()
        )


def count_calls(function, *args) -> tuple[Calls, object]:
    """The Python-level calls ``function(*args)`` makes, itself
    included, and what it returns.  The garbage collector is off
    meanwhile: a collection would count the callbacks other libraries
    hang on it (hypothesis times every collection)."""
    path: list[str] = []

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            # ``co_qualname`` is new in Python 3.11.
            name = getattr(code, "co_qualname", code.co_name)
            path.append(f"{frame.f_globals.get('__name__')}:{name}")

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        result = function(*args)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return Calls(path), result
