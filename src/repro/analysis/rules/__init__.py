"""Pluggable lint rules.

A rule is a module exposing ``RULE_ID`` (the identifier waivers and
reports use) and ``check(src, ctx) -> list[Finding]``.  Register new
rules in :data:`ALL_RULES`; everything else (file discovery, waiver
filtering, CLI wiring, CI gating) picks them up automatically.  See
CONTRIBUTING.md for the recipe and tests/analysis/fixtures/ for the
one-known-bad-snippet-per-rule corpus a new rule must ship with.
"""

from __future__ import annotations

from repro.analysis.rules import determinism, dtype, faultpoints, locks

#: Every registered rule module, in report order.
ALL_RULES = (determinism, dtype, faultpoints, locks)

__all__ = ["ALL_RULES", "determinism", "dtype", "faultpoints", "locks"]
