"""What the five correctness-gate suites share.

``e2e``, ``serve``, ``mixed``, ``snapshot`` and ``chaos`` each run a
matrix of scenarios once, fingerprint what every scenario computed,
apply an in-run gate (batch == sequential, serve == solo, engine ==
reference, ...) and can compare the fingerprints with a committed
``BENCH_<suite>_quick.json``.  None of them reads a wall clock: how
fast the kernel is, is ``perfbench``'s question.  The parts that are
the same for all of them live here, once:

* :class:`ScenarioResult` -- one scenario's outcome and what it
  serializes to;
* :func:`oracle_scenario` -- the form the trace-replaying suites
  (mixed, snapshot, chaos) give it;
* :func:`fingerprint_drift` -- the comparison against a committed
  document;
* :func:`piece_map_sha256` -- the ``state_sha256`` of a set of piece
  maps;
* :class:`Suite` and :func:`run_command` -- the CLI driver: resolve
  sizes, run, apply the suite's in-run gate, optionally compare
  against a committed document, write the JSON, render text.

A suite module is then its scenario functions, its ``run_*`` sweep,
its text renderer and its in-run gate, bound together in one ``SUITE``
value (docs/ARCHITECTURE.md, "adding a suite").
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np


@dataclass(slots=True)
class ScenarioResult:
    """One scenario's size and identity fingerprint.

    ``fingerprint`` is left out of the document when ``None`` (serve
    records one per client, under ``fingerprints`` in ``extra``);
    ``extra`` is merged into the document as is -- the oracle suites'
    ``matches_reference``, chaos's fault ledger.
    """

    name: str
    ops: int
    unit: str
    fingerprint: dict[str, object] | None = None
    extra: dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        data: dict[str, object] = {"ops": self.ops, "unit": self.unit}
        if self.fingerprint is not None:
            data["fingerprint"] = self.fingerprint
        data.update(self.extra)
        return data


def oracle_scenario(
    name: str,
    ops: int,
    fingerprint: dict[str, object],
    matches_reference: bool,
    **extra: object,
) -> ScenarioResult:
    """A replayed-trace scenario: counted in trace ops and carrying the
    verdict of its in-run oracle (mixed, snapshot, chaos)."""
    return ScenarioResult(
        name,
        ops,
        "trace ops",
        fingerprint,
        {"matches_reference": matches_reference, **extra},
    )


def piece_map_sha256(
    maps: Iterable[tuple[str, Sequence, Sequence]],
    pivots_first: bool = False,
) -> str:
    """Hash labelled piece maps into a suite's ``state_sha256``.

    ``maps`` yields ``(label, cuts, pivots)`` in hash order.  Cuts hash
    as int64 and pivots exactly, as the integers (int64) or floats
    (float64) they are -- the semantic state, stable across machines,
    numpy versions and cracker-column narrowing.
    ``pivots_first`` is the byte order the committed
    ``BENCH_serve_quick.json`` fingerprints were produced with.
    """
    state = hashlib.sha256()
    for label, cuts, pivots in maps:
        state.update(label.encode())
        parts = [
            np.asarray(cuts, dtype=np.int64).tobytes(),
            np.asarray(pivots).tobytes(),
        ]
        for part in reversed(parts) if pivots_first else parts:
            state.update(part)
    return state.hexdigest()


# -- the gate against a committed document ------------------------------------


def _fingerprint_pairs(
    current: dict[str, object], committed: dict[str, object]
) -> Iterator[tuple[str, dict | None, dict | None]]:
    """``(label, fresh, committed)`` fingerprints of every scenario both
    documents have: one per scenario, or one per client where serve
    records several."""
    committed_scenarios = committed.get("scenarios", {})
    for name, data in current.get("scenarios", {}).items():
        base = committed_scenarios.get(name)
        if base is None:
            continue
        if "fingerprints" in data:
            expected = base.get("fingerprints", {})
            for client, fingerprint in data["fingerprints"].items():
                yield f"{name}.{client}", fingerprint, expected.get(client)
        else:
            yield name, data.get("fingerprint"), base.get("fingerprint")


def fingerprint_drift(
    current: dict[str, object], committed: dict[str, object]
) -> list[str]:
    """One line per fingerprint key that moved against ``committed``.

    Every key of a fingerprint gates: each is a function of the config
    and the seed alone (piece maps hash as cuts and pivots, not as
    physical layout).  Documents with different configs are therefore
    not compared, and neither is a scenario or fingerprint the
    committed document does not have.
    """
    if committed.get("config", {}) != current.get("config", {}):
        return []
    failures: list[str] = []
    for label, fresh, expected in _fingerprint_pairs(current, committed):
        if expected is None:
            continue
        fresh = fresh or {}
        for key in {**expected, **fresh}:
            if expected.get(key) != fresh.get(key):
                failures.append(
                    f"{label}.{key}: fingerprint diverged from "
                    f"committed baseline (expected {expected.get(key)!r}, "
                    f"got {fresh.get(key)!r})"
                )
    return failures


# -- the command driver -------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Suite:
    """What :func:`run_command` needs to know about one suite.

    Attributes:
        name: the CLI command.
        run: ``run(rows, ops, seed, mode)`` -> the document.
        text: human-readable rendering of a document.
        gate: the in-run correctness failures of a document (empty
            when it is sound) -- claims that need no baseline, such as
            ``batch == sequential`` or ``engine == reference``.
        full_sizes: default ``(rows, ops)``.
        quick_sizes: ``(rows, ops)`` under ``--quick``.
    """

    name: str
    run: Callable[[int, int, int, str], dict[str, object]]
    text: Callable[[dict[str, object]], str]
    gate: Callable[[dict[str, object]], list[str]]
    full_sizes: tuple[int, int]
    quick_sizes: tuple[int, int]


def check_regression(
    suite: Suite, current: dict[str, object], committed: dict[str, object]
) -> list[str]:
    """Every failure of ``current`` against a committed document: the
    suite's in-run gate, then fingerprint drift."""
    return [*suite.gate(current), *fingerprint_drift(current, committed)]


def run_command(
    suite: Suite,
    rows: int | None,
    ops: int | None,
    seed: int,
    quick: bool,
    out: str | None,
    check_path: str | None,
) -> tuple[str, int]:
    """CLI driver for ``python -m repro.bench <suite>``.

    Returns ``(text_output, exit_code)``.  The suite's in-run gate
    fails the run even without a committed document to compare
    against; ``check_path`` adds the fingerprint comparison.  The JSON
    document is written to ``out`` when given (failing runs included,
    for the post-mortem) and nowhere otherwise.
    """
    default_rows, default_ops = suite.quick_sizes if quick else suite.full_sizes
    document = suite.run(
        default_rows if rows is None else rows,
        default_ops if ops is None else ops,
        seed,
        "quick" if quick else "full",
    )
    if check_path:
        committed = json.loads(Path(check_path).read_text())
        failures = check_regression(suite, document, committed)
    else:
        failures = suite.gate(document)
    lines = [suite.text(document)]
    if out:
        Path(out).write_text(json.dumps(document, indent=2) + "\n")
        lines.append(f"wrote {out}")
    if failures:
        lines += ["", f"{suite.name.upper()} GATE FAILURES:", *failures]
    elif check_path:
        lines += ["", f"{suite.name} gate passed"]
    return "\n".join(lines), 1 if failures else 0
