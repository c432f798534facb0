"""Repo-specific static analysis and runtime sanitizers.

The kernel's headline claims rest on invariants that ordinary tests
only sample: bit-identical fingerprints require wall-clock- and
randomness-free charged paths (SimClock determinism), the worker and
serving planes require every latch acquisition to be release-protected
on every path, range bounds change domain only in
``storage.dtypes.normalise_range`` because one silent int64->float64
``searchsorted`` promotion produces wrong answers, and the fault
plane's recovery audit is only as good as its trip/tamper call-site
coverage.  This package checks those invariants
mechanically:

* :mod:`repro.analysis.lint` -- an AST lint engine with pluggable
  rules (:mod:`repro.analysis.rules`) enforcing latch discipline,
  determinism, dtype-promotion hygiene and fault-point coverage;
* :mod:`repro.analysis.lockorder` -- a static lock-order analyzer
  that extracts the latch-acquisition call graph and fails on cycles
  (the deadlock-freedom argument the sharding roadmap item needs
  before per-shard latch tables multiply the lock graph);
* :mod:`repro.analysis.witness` -- a lockdep-style runtime witness:
  a debug mode where latch acquisitions are recorded per thread,
  order inversions are flagged as they happen, and
  :class:`~repro.cracking.index.CrackerIndex` mutation entry points
  assert the caller holds the covering write latch;
* :mod:`repro.analysis.mypy_gate` -- the strict-typing gate over
  ``repro/simtime``, ``repro/cracking/piecemap`` and this package.

Run everything with ``python -m repro.analysis --check`` (the CI
``static-analysis`` job's entry point).

This module stays import-light on purpose: production code
(:mod:`repro.cracking.concurrency`, :mod:`repro.cracking.index`,
:mod:`repro.holistic.workers`) imports :mod:`repro.analysis.witness`
for its zero-overhead-when-disabled hooks, and must not drag the AST
machinery in with it.
"""

from __future__ import annotations

__all__ = ["witness"]

from repro.analysis import witness
