"""Cracking access for the tuning worker threads.

"Concurrency control for adaptive indexing" (Graefe et al., PVLDB 2012
-- the paper's [7]) observes that cracking turns read-only selects into
structural writers.  In this kernel no query runs beside the tuning
workers: the pool runs only inside an idle window
(:meth:`repro.holistic.workers.TuningWorkerPool.run_window`), and its
static plan gives sibling batches disjoint pieces.  What is left to
synchronise is the index itself, and the index's monitor lock does
that: a worker batch is one :meth:`CrackerIndex.tuning_pass` under
``index.lock``, which serialises the physical passes of one column in
wall-clock time (the kernels release the GIL inside numpy, so passes
on *different* columns can overlap).  The worker only partitions: the
window's thread prices each pass onto the worker slot's lane of the
virtual clock, the paper's multi-core time accounting.
"""

from __future__ import annotations

from typing import Sequence

from repro.cracking.index import CrackerIndex, CrackPass
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
    ) -> CrackPass:
        """One worker batch as one multi-pivot pass under the index
        lock (:meth:`CrackerIndex.tuning_pass`); returns the pass's
        record, unpriced -- the idle window's thread prices it
        (:meth:`CrackerIndex.price_pass`)."""
        return self.index.tuning_pass(values, min_piece_size)
