"""Python-level call counts: the measure of the tier-1 call budgets.

A call budget bounds how many Python functions one operation enters.
The count is exact, machine-independent and reads no clock, so a
budget guards a hot path's structure where a wall-clock reading on a
noisy machine cannot; how fast the path runs stays ``perfbench``'s
question.
"""

from __future__ import annotations

import sys


def count_calls(function, *args) -> tuple[int, object]:
    """The Python-level calls ``function(*args)`` makes, itself
    included, and what it returns."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    sys.setprofile(profile)
    try:
        result = function(*args)
    finally:
        sys.setprofile(None)
    return count, result
