"""The calibration unit: how fast is this machine *right now*.

The host slows this class of VM by 20-70 % for seconds to minutes at a
time, CPU time rising with wall time (README, *Noise*): a run of ten
seconds can sit wholly inside such a state, so no statistic over the
run's own passes removes it.  What does is a fixed piece of work timed
right before and right after every pass.  With ``slowdown`` =
(calibration around the pass) / :data:`REFERENCE_S`, the pass's times
are divided by ``slowdown ** DAMPING``, i.e. they are reported as the
wall time the same work takes on a machine whose calibration unit
takes :data:`REFERENCE_S` -- this box when nothing disturbs it.  Spans
that wait on the disk (checkpoints, restores, ``durable_cycle``'s idle
windows) are left as measured: a checkpoint is ``fsync``, file writes
and ``unlink``, and its time does not follow the unit at all.

The unit is shaped like the kernel's own per-query path (binary
searches into a sorted 8 MB array, a small slice sum, boxed integers),
because that is what tracked the slow states best: over a ten-minute
interleaved series, dividing by this unit cut the spread of forty-second
group medians from 15-22 % to 4-8 % on every workload, where a pure
arithmetic spin left 5-13 % and a streaming numpy kernel 9-17 %.
It reads nothing of ``repro``: a change under ``src/`` cannot move it.

:data:`DAMPING` is there because the unit is interpreter-bound and a
slow state hits it harder than work that also waits on memory or disk:
fitted per workload over 210 runs, time grows as slowdown^0.9 on the
per-query Python path, ^0.4-0.5 where big numpy kernels or ``fsync``
dominate.  One exponent for all keeps the model out of the workloads;
0.75 is the middle of a flat optimum (0.65-0.85), where the worst
run-to-run spread of any workload was 15 % against 25 % undamped and
33 % unscaled (README, *Noise*).
"""

from __future__ import annotations

import time

import numpy as np

#: Calibration time of the reference machine (this box, undisturbed).
REFERENCE_S = 0.75e-3

#: Times scale with ``slowdown ** DAMPING`` (module docstring).
DAMPING = 0.75

_STEPS = 300
_UNITS = 4


class Calibration:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._sorted = np.sort(
            rng.integers(1, 10**8, size=1_000_000, dtype=np.int64)
        )
        self._keys = rng.integers(1, 10**8, size=_STEPS + 1, dtype=np.int64)

    def _unit(self) -> float:
        clock = time.perf_counter
        values, keys = self._sorted, self._keys
        t0 = clock()
        for i in range(_STEPS):
            a = values.searchsorted(keys[i])
            b = values.searchsorted(keys[i + 1])
            values[min(a, b):max(a, b)][:100].sum()
        return clock() - t0

    def sample(self) -> float:
        """Seconds one unit takes now: the fastest of a few, after one
        that only refills the caches the workload emptied (an interrupt
        adds time to a unit and never takes any away)."""
        self._unit()
        return min(self._unit() for _ in range(_UNITS - 1))


def slowdown(*samples: float) -> float:
    """Machine speed over a span, from the calibration samples taken
    around it: 1.0 is the reference machine, 1.4 one on which the
    calibration unit takes 40 % longer."""
    return sum(samples) / len(samples) / REFERENCE_S


def time_scale(slowdown: float) -> float:
    """What a time measured at ``slowdown`` is divided by."""
    return slowdown ** DAMPING
