"""The scaffolding the six wall-clock suites share.

Everything here runs on synthetic documents and a synthetic suite, so
no assertion depends on how fast this machine happens to be.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.bench.harness import (
    REGRESSION_LIMIT,
    ScenarioResult,
    Suite,
    check_regression,
    fingerprint_drift,
    piece_map_sha256,
    record_best,
    run_command,
    throughput_regressions,
)


def _document(throughput: float = 100.0, **fingerprint) -> dict:
    fingerprint = {"state": "abc", "rows": 7, "layout": "xyz", **fingerprint}
    return {
        "config": {"rows": 10, "seed": 1},
        "scenarios": {
            "one": {
                "unit": "queries",
                "throughput": throughput,
                "fingerprint": fingerprint,
            }
        },
    }


def test_scenario_result_document_form():
    bare = ScenarioResult("s", 0.5, 10, "queries")
    assert bare.throughput == 20.0
    assert bare.as_dict() == {
        "wall_s": 0.5,
        "ops": 10,
        "unit": "queries",
        "throughput": 20.0,
    }
    full = ScenarioResult(
        "s", 0.0, 10, "trace ops", {}, {"matches_reference": True}
    )
    assert full.throughput == float("inf")
    assert list(full.as_dict())[-2:] == ["fingerprint", "matches_reference"]


def test_throughput_gate_trips_above_the_limit_not_at_it():
    committed = _document(throughput=100.0)
    at_limit = _document(throughput=100.0 / REGRESSION_LIMIT)
    assert throughput_regressions(at_limit, committed) == []
    below = _document(throughput=100.0 / REGRESSION_LIMIT - 0.5)
    (failure,) = throughput_regressions(below, committed)
    assert failure.startswith("one: throughput regressed 2.02x")
    assert "queries/s" in failure
    # Faster than committed, or a scenario the baseline lacks: no gate.
    assert throughput_regressions(_document(throughput=1e6), committed) == []
    assert throughput_regressions(below, {"scenarios": {}}) == []


def test_fingerprint_drift_is_reported_per_semantic_key():
    committed = _document()
    moved = _document(state="def", rows=8, layout="other")
    failures = fingerprint_drift(moved, committed, ("state", "rows"))
    assert [f.split(":")[0] for f in failures] == ["one.state", "one.rows"]
    assert "expected 'abc', got 'def'" in failures[0]
    # ``layout`` is not a semantic key, so it never gates.
    assert fingerprint_drift(moved, committed, ("missing",)) == []
    assert fingerprint_drift(moved, committed, ()) == []


def test_fingerprint_drift_is_skipped_across_configs():
    committed = _document()
    moved = _document(state="def")
    moved["config"]["rows"] = 11
    assert fingerprint_drift(moved, committed, ("state",)) == []


def test_fingerprint_drift_walks_per_client_fingerprints():
    def document(state: str) -> dict:
        return {
            "config": {},
            "scenarios": {
                "serve": {
                    "fingerprints": {
                        "client-0": {"state": "same"},
                        "client-1": {"state": state},
                    }
                }
            },
        }

    (failure,) = fingerprint_drift(document("b"), document("a"), ("state",))
    assert failure.startswith("serve.client-1.state: fingerprint diverged")


def test_record_best_keeps_the_fastest_and_insists_on_determinism():
    scenarios: dict[str, ScenarioResult] = {}
    record_best(scenarios, ScenarioResult("s", 0.3, 1, "ops", {"k": 1}))
    record_best(scenarios, ScenarioResult("s", 0.1, 1, "ops", {"k": 1}))
    record_best(scenarios, ScenarioResult("s", 0.2, 1, "ops", {"k": 1}))
    assert scenarios["s"].wall_s == 0.1
    with pytest.raises(AssertionError, match="non-deterministic"):
        record_best(scenarios, ScenarioResult("s", 0.1, 1, "ops", {"k": 2}))


def test_record_best_compares_per_client_fingerprints():
    def served(state: int) -> ScenarioResult:
        return ScenarioResult(
            "s", 0.1, 1, "ops", extra={"fingerprints": {"client-0": state}}
        )

    scenarios = {"s": served(1)}
    record_best(scenarios, served(1))
    with pytest.raises(AssertionError, match="non-deterministic"):
        record_best(scenarios, served(2))


def test_piece_map_sha256_covers_labels_order_and_values():
    maps = [("R.A1", [3, 9], [1.5, 7.0]), ("R.A2", [4], [2.0])]
    digest = piece_map_sha256(maps).hexdigest()
    assert piece_map_sha256(maps).hexdigest() == digest
    narrowed = [
        (label, np.asarray(cuts, dtype=np.int32), np.asarray(pivots))
        for label, cuts, pivots in maps
    ]
    assert piece_map_sha256(narrowed).hexdigest() == digest
    assert piece_map_sha256(maps[::-1]).hexdigest() != digest
    assert piece_map_sha256(maps, pivots_first=True).hexdigest() != digest
    moved = [("R.A1", [3, 10], [1.5, 7.0]), maps[1]]
    assert piece_map_sha256(moved).hexdigest() != digest


def _suite(sound: bool = True) -> Suite:
    """A suite whose timing is fixed, so its gates are deterministic."""

    def run(rows, ops, seed, mode, repeats):
        document = _document()
        document["config"] = {"rows": rows, "ops": ops, "mode": mode}
        document["sound"] = sound
        return document

    return Suite(
        name="toy",
        run=run,
        text=lambda document: f"toy run, {document['config']['rows']} rows",
        gate=lambda document: [] if document["sound"] else ["toy: unsound"],
        semantic_keys=("state",),
        full_sizes=(1000, 100),
        quick_sizes=(10, 1),
    )


def _run(suite, tmp_path, **overrides):
    params = dict(
        rows=None,
        ops=None,
        seed=1,
        quick=True,
        out=str(tmp_path / "out.json"),
        check_path=None,
    )
    params.update(overrides)
    return run_command(suite, **params)


def test_run_command_resolves_sizes_and_writes_the_document(tmp_path):
    text, code = _run(_suite(), tmp_path)
    assert code == 0
    assert text == f"toy run, 10 rows\nwrote {tmp_path / 'out.json'}"
    document = json.loads((tmp_path / "out.json").read_text())
    assert document["config"] == {"rows": 10, "ops": 1, "mode": "quick"}
    _run(_suite(), tmp_path, quick=False, ops=5)
    document = json.loads((tmp_path / "out.json").read_text())
    assert document["config"] == {"rows": 1000, "ops": 5, "mode": "full"}


def test_run_command_fails_an_unsound_run_without_check(tmp_path):
    text, code = _run(_suite(sound=False), tmp_path)
    assert code == 1
    assert text.endswith("\n\nTOY GATE FAILURES:\ntoy: unsound")
    # The document is written either way, for the post-mortem.
    assert json.loads((tmp_path / "out.json").read_text())["sound"] is False


def test_run_command_check_round_trip(tmp_path):
    committed = tmp_path / "committed.json"
    assert _run(_suite(), tmp_path, out=str(committed))[1] == 0
    text, code = _run(_suite(), tmp_path, check_path=str(committed))
    assert code == 0
    assert text.endswith("\n\ntoy gate passed")

    drifted = json.loads(committed.read_text())
    drifted["scenarios"]["one"]["fingerprint"]["state"] = "other"
    drifted["scenarios"]["one"]["throughput"] *= 10
    committed.write_text(json.dumps(drifted))
    text, code = _run(_suite(sound=False), tmp_path, check_path=str(committed))
    assert code == 1
    failures = text.split("TOY GATE FAILURES:\n")[1].splitlines()
    # In-run gate first, then throughput, then fingerprint drift.
    assert failures[0] == "toy: unsound"
    assert "throughput regressed 10.00x" in failures[1]
    assert failures[2].startswith("one.state: fingerprint diverged")
    assert failures == check_regression(
        _suite(sound=False),
        json.loads((tmp_path / "out.json").read_text()),
        drifted,
    )


def test_run_command_embeds_a_baseline(tmp_path):
    baseline = tmp_path / "baseline.json"
    halved = _document(throughput=50.0)
    baseline.write_text(json.dumps(halved))
    _run(_suite(), tmp_path, baseline_path=str(baseline))
    document = json.loads((tmp_path / "out.json").read_text())
    assert document["speedup_vs_baseline"] == {"one": 2.0}
    assert document["baseline"]["scenarios"] == halved["scenarios"]
