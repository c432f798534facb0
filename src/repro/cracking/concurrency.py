"""Cracking access for the tuning worker threads.

"Concurrency control for adaptive indexing" (Graefe et al., PVLDB 2012
-- the paper's [7]) observes that cracking turns read-only selects into
structural writers.  In this kernel no query runs beside the tuning
workers: the pool runs only inside an idle window
(:meth:`repro.holistic.workers.TuningWorkerPool.run_window`), and its
static plan gives sibling batches disjoint pieces.  What is left to
synchronise is the index itself, and the index's monitor lock does
that: a worker batch is one :meth:`CrackerIndex.ensure_cuts` under
``index.lock``, which serialises the physical passes of one column in
wall-clock time (the kernels release the GIL inside numpy, so passes
on *different* columns can overlap).  The virtual clock's parallel
lanes turn the workers into the paper's multi-core time accounting.
"""

from __future__ import annotations

from typing import Sequence

from repro.cracking.index import CrackerIndex
from repro.storage.dtypes import Key
from repro.storage.views import RangeView


class LatchedCrackerAccess:
    """A tuning worker's access to one :class:`CrackerIndex`."""

    def __init__(self, index: CrackerIndex) -> None:
        self.index = index

    def select_range(self, low: float, high: float) -> RangeView:
        """A cracking range select.  No kernel path calls it; it stays
        because ``perfbench/layers.py`` names it (ROADMAP item 1a)."""
        return self.index.select_range(low, high)

    def crack_value(
        self, values: Sequence[Key], min_piece_size: int = 1
    ) -> int:
        """One worker batch as one multi-pivot pass; returns the number
        of new cuts.

        Under the index lock, the degenerate values are dropped -- one
        that is already a pivot, or whose piece is at/below
        ``min_piece_size``, the contract of
        :meth:`CrackerIndex.random_crack` -- and the rest go to a
        single :meth:`CrackerIndex.ensure_cuts`.
        """
        index = self.index
        with index.lock:
            locate = index.piece_map.locate
            targets = []
            for value in values:
                _, start, end, at_pivot = locate(value)
                if not at_pivot and end - start > min_piece_size:
                    targets.append(value)
            if not targets:
                return 0
            before = index.crack_count
            index.ensure_cuts(targets)
            return index.crack_count - before
