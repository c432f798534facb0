"""Repo-specific static analysis.

The kernel's headline claims rest on invariants that ordinary tests
only sample: bit-identical fingerprints require wall-clock- and
randomness-free charged paths (SimClock determinism), range bounds
change domain only in ``storage.dtypes.normalise_range`` because one
silent int64->float64 ``searchsorted`` promotion produces wrong
answers, no lock but the cracker index's may be held across another
module's code, and the fault plane's recovery audit is only as good as
its trip/tamper call-site coverage.  This package checks those
invariants mechanically:

* :mod:`repro.analysis.lint` -- an AST lint engine with pluggable
  rules (:mod:`repro.analysis.rules`) enforcing determinism,
  dtype-promotion hygiene, fault-point coverage and lock discipline;
* :mod:`repro.analysis.mypy_gate` -- the strict-typing gate over
  ``repro/simtime`` and ``repro/cracking/piecemap``.

Run everything with ``python -m repro.analysis --check`` (the CI
``static-analysis`` job's entry point).
"""
