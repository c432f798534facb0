"""What the six wall-clock suites share.

``hotpath``, ``e2e``, ``serve``, ``mixed``, ``snapshot`` and ``chaos``
each time a matrix of scenarios, fingerprint what every scenario
computed, and gate a fresh run against a committed ``BENCH_*.json``.
The parts that are the same for all of them live here, once:

* :class:`ScenarioResult` -- one measurement and what it serializes to;
* :func:`oracle_scenario` -- the form the trace-replaying suites
  (mixed, snapshot, chaos) give it;
* :func:`record_best` -- best-of-N timing that insists the repeats
  computed the same thing;
* :func:`throughput_regressions` and :func:`fingerprint_drift` -- the
  two comparisons against a committed document;
* :func:`piece_map_sha256` -- the ``state_sha256`` of a set of piece
  maps;
* :class:`Suite` and :func:`run_command` -- the CLI driver: resolve
  sizes, run, apply the suite's in-run correctness gate, optionally
  compare against a committed document, write the JSON, render text.

A suite module is then its scenario functions, its ``run_*`` sweep,
its text renderer, the fingerprint keys that are stable across
machines, and its in-run gate, bound together in one ``SUITE`` value
(docs/ARCHITECTURE.md, "adding a suite").
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

#: A scenario fails the ``--check`` gate when the committed document's
#: throughput exceeds the fresh run's by more than this factor.
REGRESSION_LIMIT = 2.0


@dataclass(slots=True)
class ScenarioResult:
    """One scenario's wall-clock measurement and identity fingerprint.

    ``fingerprint`` is left out of the document when ``None`` (runs
    whose outcome depends on thread timing have none); ``extra`` is
    merged into the document as is -- serve's per-client
    ``fingerprints`` and latencies, the oracle suites'
    ``matches_reference``, chaos's fault ledger.
    """

    name: str
    wall_s: float
    ops: int
    unit: str
    fingerprint: dict[str, object] | None = None
    extra: dict[str, object] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Operations per wall-clock second."""
        if self.wall_s <= 0:
            return float("inf")
        return self.ops / self.wall_s

    def as_dict(self) -> dict[str, object]:
        data: dict[str, object] = {
            "wall_s": round(self.wall_s, 6),
            "ops": self.ops,
            "unit": self.unit,
            "throughput": round(self.throughput, 3),
        }
        if self.fingerprint is not None:
            data["fingerprint"] = self.fingerprint
        data.update(self.extra)
        return data


def oracle_scenario(
    name: str,
    wall_s: float,
    ops: int,
    fingerprint: dict[str, object],
    matches_reference: bool,
    **extra: object,
) -> ScenarioResult:
    """A replayed-trace scenario: counted in trace ops and carrying the
    verdict of its in-run oracle (mixed, snapshot, chaos)."""
    return ScenarioResult(
        name,
        wall_s,
        ops,
        "trace ops",
        fingerprint,
        {"matches_reference": matches_reference, **extra},
    )


def record_best(
    scenarios: dict[str, ScenarioResult], result: ScenarioResult
) -> None:
    """Keep the fastest run of each scenario across repeats.

    Wall-clock noise (allocator warmth, CPU scheduling) easily swamps
    a single run, so every scenario reports its best-of-N time.  The
    runs are deterministic, so their fingerprints must be identical; a
    mismatch means the engine went non-deterministic and raises.
    """
    best = scenarios.get(result.name)
    if best is None:
        scenarios[result.name] = result
        return
    if (best.fingerprint, best.extra.get("fingerprints")) != (
        result.fingerprint,
        result.extra.get("fingerprints"),
    ):
        raise AssertionError(
            f"{result.name}: non-deterministic fingerprint across "
            f"repeats: {best.fingerprint} != {result.fingerprint}"
        )
    if result.wall_s < best.wall_s:
        scenarios[result.name] = result


def piece_map_sha256(
    maps: Iterable[tuple[str, Sequence, Sequence]],
    pivots_first: bool = False,
):
    """Hash labelled piece maps into a suite's ``state_sha256``.

    ``maps`` yields ``(label, cuts, pivots)`` in hash order.  Cuts hash
    as int64 and pivots as float64 -- the semantic state, stable across
    machines, numpy versions and cracker-column narrowing.  Returns the
    hash object so a caller can extend a copy (hotpath's layout hash).
    ``pivots_first`` is the byte order the committed
    ``BENCH_serve*.json`` fingerprints were produced with.
    """
    state = hashlib.sha256()
    for label, cuts, pivots in maps:
        state.update(label.encode())
        parts = [
            np.asarray(cuts, dtype=np.int64).tobytes(),
            np.asarray(pivots, dtype=np.float64).tobytes(),
        ]
        for part in reversed(parts) if pivots_first else parts:
            state.update(part)
    return state


def attach_baseline(
    result: dict[str, object], baseline: dict[str, object]
) -> None:
    """Embed ``baseline`` and per-scenario speedups into ``result``."""
    result["baseline"] = {
        "config": baseline.get("config", {}),
        "scenarios": baseline.get("scenarios", {}),
    }
    speedups: dict[str, float] = {}
    for name, data in result["scenarios"].items():
        base = baseline.get("scenarios", {}).get(name)
        if not base or not base.get("throughput"):
            continue
        speedups[name] = round(data["throughput"] / base["throughput"], 3)
    result["speedup_vs_baseline"] = speedups


# -- gates against a committed document ---------------------------------------


def _shared_scenarios(
    current: dict[str, object], committed: dict[str, object]
) -> Iterator[tuple[str, dict, dict]]:
    committed_scenarios = committed.get("scenarios", {})
    for name, data in current.get("scenarios", {}).items():
        base = committed_scenarios.get(name)
        if base is not None:
            yield name, data, base


def throughput_regressions(
    current: dict[str, object], committed: dict[str, object]
) -> list[str]:
    """Scenarios more than ``REGRESSION_LIMIT``x slower than committed.

    The limit is loose because CI machines vary; it catches an
    accidental quadratic, not a 10% slip.
    """
    failures: list[str] = []
    for name, data, base in _shared_scenarios(current, committed):
        base_tp = float(base.get("throughput", 0.0))
        cur_tp = float(data.get("throughput", 0.0))
        if base_tp > 0 and cur_tp > 0 and base_tp / cur_tp > REGRESSION_LIMIT:
            failures.append(
                f"{name}: throughput regressed "
                f"{base_tp / cur_tp:.2f}x ({base_tp:.1f} -> {cur_tp:.1f} "
                f"{data.get('unit', 'ops')}/s, limit {REGRESSION_LIMIT}x)"
            )
    return failures


def _fingerprint_pairs(
    name: str, data: dict, base: dict
) -> Iterator[tuple[str, dict, dict]]:
    """``(label, fresh, committed)`` fingerprints of one scenario: one
    per scenario, or one per client where serve records several."""
    if "fingerprints" in data:
        committed = base.get("fingerprints", {})
        for client, fingerprint in data["fingerprints"].items():
            yield f"{name}.{client}", fingerprint, committed.get(client)
    else:
        yield name, data.get("fingerprint"), base.get("fingerprint")


def fingerprint_drift(
    current: dict[str, object],
    committed: dict[str, object],
    semantic_keys: Sequence[str],
) -> list[str]:
    """Semantic fingerprint keys that moved against ``committed``.

    Only ``semantic_keys`` gate: the rest of a fingerprint (physical
    layout hashes) depends on numpy internals and pins determinism
    within one environment only.  Fingerprints are functions of the
    config, so documents with different configs are not compared.
    """
    if committed.get("config", {}) != current.get("config", {}):
        return []
    failures: list[str] = []
    for name, data, base in _shared_scenarios(current, committed):
        for label, fresh, expected in _fingerprint_pairs(name, data, base):
            if not fresh or not expected:
                continue
            for key in semantic_keys:
                if key in expected and expected[key] != fresh.get(key):
                    failures.append(
                        f"{label}.{key}: fingerprint diverged from "
                        f"committed baseline (expected {expected[key]!r}, "
                        f"got {fresh.get(key)!r})"
                    )
    return failures


# -- the command driver -------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Suite:
    """What :func:`run_command` needs to know about one suite.

    Attributes:
        name: the CLI command; results default to ``BENCH_<name>.json``.
        run: ``run(rows, ops, seed, mode, repeats)`` -> the document.
        text: human-readable rendering of a document.
        gate: the in-run correctness failures of a document (empty
            when it is sound) -- claims that need no baseline, such as
            ``batch == sequential`` or ``engine == reference``.
        semantic_keys: fingerprint keys gated by
            :func:`fingerprint_drift`; empty to skip that gate.
        full_sizes: default ``(rows, ops)``.
        quick_sizes: ``(rows, ops)`` under ``--quick``.
    """

    name: str
    run: Callable[[int, int, int, str, int], dict[str, object]]
    text: Callable[[dict[str, object]], str]
    gate: Callable[[dict[str, object]], list[str]]
    semantic_keys: tuple[str, ...]
    full_sizes: tuple[int, int]
    quick_sizes: tuple[int, int]


def check_regression(
    suite: Suite, current: dict[str, object], committed: dict[str, object]
) -> list[str]:
    """Every failure of ``current`` against a committed document: the
    suite's in-run gate, then throughput, then fingerprint drift."""
    return [
        *suite.gate(current),
        *throughput_regressions(current, committed),
        *fingerprint_drift(current, committed, suite.semantic_keys),
    ]


def run_command(
    suite: Suite,
    rows: int | None,
    ops: int | None,
    seed: int,
    quick: bool,
    out: str | None,
    check_path: str | None,
    repeats: int = 3,
    baseline_path: str | None = None,
) -> tuple[str, int]:
    """CLI driver for ``python -m repro.bench <suite>``.

    Returns ``(text_output, exit_code)``.  The suite's in-run gate is a
    correctness claim, not a perf one, so it fails the run even without
    a committed document to compare against; ``check_path`` adds the
    throughput and fingerprint gates.  The JSON is written either way.
    """
    default_rows, default_ops = suite.quick_sizes if quick else suite.full_sizes
    document = suite.run(
        default_rows if rows is None else rows,
        default_ops if ops is None else ops,
        seed,
        "quick" if quick else "full",
        repeats,
    )
    if baseline_path:
        attach_baseline(document, json.loads(Path(baseline_path).read_text()))
    if check_path:
        committed = json.loads(Path(check_path).read_text())
        failures = check_regression(suite, document, committed)
    else:
        failures = suite.gate(document)
    out_path = Path(out) if out else Path(f"BENCH_{suite.name}.json")
    out_path.write_text(json.dumps(document, indent=2) + "\n")
    lines = [suite.text(document), f"wrote {out_path}"]
    if failures:
        lines += ["", f"{suite.name.upper()} GATE FAILURES:", *failures]
    elif check_path:
        lines += ["", f"{suite.name} gate passed"]
    return "\n".join(lines), 1 if failures else 0
