"""Generated inputs and the reference answers they are checked against.

Everything the kernel sees is made here from ``--seed`` with numpy's
generator alone, so the inputs are fixed by this package and cannot
move when a generator under ``src/`` does.  Values are uniform int64
in ``[1, 10^8]`` as in the paper.

:class:`Oracle` answers ``(count, value sum)`` of a range query over
one column from a sorted copy of the base array (``searchsorted`` and
a slice sum) plus the pending inserts and deletes staged so far --
exact integer arithmetic, a few microseconds per query, so every
answer of every pass is checked.
"""

from __future__ import annotations

import numpy as np

DOMAIN_LOW = 1
DOMAIN_HIGH = 100_000_000
_SPAN = DOMAIN_HIGH - DOMAIN_LOW

#: The e2e suite's parameterized mix: predicates snapped to a grid of
#: prepared bounds, the rest uniform.
GRID_POINTS = 320


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """An independent generator per (seed, purpose, pass)."""
    return np.random.default_rng([seed, *stream])


def base_arrays(seed: int, rows: int, columns: int) -> list[np.ndarray]:
    return [
        rng_for(seed, 1, c).integers(
            DOMAIN_LOW, DOMAIN_HIGH + 1, size=rows, dtype=np.int64
        )
        for c in range(columns)
    ]


def width_of(selectivity: float) -> float:
    return _SPAN * selectivity


def uniform_lows(
    rng: np.random.Generator, count: int, selectivity: float
) -> np.ndarray:
    return rng.uniform(
        DOMAIN_LOW, DOMAIN_HIGH - width_of(selectivity), size=count
    )


def grid_lows(
    rng: np.random.Generator,
    count: int,
    selectivity: float,
    grid_fraction: float,
) -> np.ndarray:
    """Low bounds: ``grid_fraction`` on the grid, the rest uniform."""
    step = _SPAN / GRID_POINTS
    on_grid = DOMAIN_LOW + rng.integers(0, GRID_POINTS - 2, size=count) * step
    uniform = uniform_lows(rng, count, selectivity)
    return np.where(rng.random(size=count) < grid_fraction, on_grid, uniform)


class _SortedBag:
    """A sorted multiset of domain values answering range (count, sum)
    queries.  Values fit int32 (the domain tops out at 10^8): 4 bytes a
    row instead of the 16 a sorted int64 copy with prefix sums would
    take, and every byte a workload touches is paid for in page faults
    on each run (see the README).  Sums add up each answer's slice in
    int64, ~2 us per 4000-row answer."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray) -> None:
        self.values = values.astype(np.int32)
        self.values.sort()

    def add(self, values: np.ndarray) -> None:
        fresh = np.sort(np.asarray(values).astype(np.int32))
        slots = np.searchsorted(self.values, fresh)
        self.values = np.insert(self.values, slots, fresh)

    def ranges(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``lows``/``highs`` are int32 keys (see :meth:`Oracle.expect`)."""
        values = self.values
        lo = np.searchsorted(values, lows, side="left")
        hi = np.searchsorted(values, highs, side="left")
        sums = [
            int(values[a:b].sum(dtype=np.int64))
            for a, b in zip(lo.tolist(), hi.tolist())
        ]
        return hi - lo, np.asarray(sums, dtype=np.int64)


class Oracle:
    """Reference answers for one column under staged updates."""

    def __init__(self, base: np.ndarray) -> None:
        self._base_values = base
        self._base = _SortedBag(base)
        self.reset()

    def reset(self) -> None:
        """Forget every staged update (the delta store was cleared)."""
        empty = np.empty(0, dtype=np.int32)
        self._inserted = _SortedBag(empty)
        self._deleted = _SortedBag(empty)

    def insert(self, values: np.ndarray) -> None:
        self._inserted.add(values)

    def delete(self, positions: np.ndarray) -> None:
        """Positions must be live: the generators never repeat one."""
        self._deleted.add(self._base_values[positions])

    def expect(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact ``(counts, sums)`` of ``low <= v < high`` per query.

        Integer values satisfy ``v >= bound`` iff ``v >= ceil(bound)``,
        so the float bounds become exact integer search keys.
        """
        lo = np.ceil(lows).astype(np.int32)
        hi = np.ceil(highs).astype(np.int32)
        count, total = self._base.ranges(lo, hi)
        for bag, sign in ((self._inserted, 1), (self._deleted, -1)):
            if len(bag.values):
                c, s = bag.ranges(lo, hi)
                count = count + sign * c
                total = total + sign * s
        return count, total
