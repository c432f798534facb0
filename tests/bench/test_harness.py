"""The scaffolding the five correctness-gate suites share.

The harness tests run on synthetic documents and a synthetic suite;
the determinism property at the end runs every real suite twice.
"""

from __future__ import annotations

import importlib
import json

import numpy as np
import pytest

from repro.bench.harness import (
    ScenarioResult,
    Suite,
    check_regression,
    fingerprint_drift,
    piece_map_sha256,
    run_command,
)


def _document(**fingerprint) -> dict:
    fingerprint = {"state": "abc", "rows": 7, "layout": "xyz", **fingerprint}
    return {
        "config": {"rows": 10, "seed": 1},
        "scenarios": {"one": {"unit": "queries", "fingerprint": fingerprint}},
    }


def test_scenario_result_document_form():
    bare = ScenarioResult("s", 10, "queries")
    assert bare.as_dict() == {"ops": 10, "unit": "queries"}
    full = ScenarioResult(
        "s", 10, "trace ops", {}, {"matches_reference": True}
    )
    assert list(full.as_dict()) == [
        "ops",
        "unit",
        "fingerprint",
        "matches_reference",
    ]


def test_fingerprint_drift_is_reported_per_semantic_key():
    committed = _document()
    assert fingerprint_drift(_document(), committed) == []
    moved = _document(state="def", rows=8)
    failures = fingerprint_drift(moved, committed)
    assert [f.split(":")[0] for f in failures] == ["one.state", "one.rows"]
    assert "expected 'abc', got 'def'" in failures[0]
    # A key only one side has moved too.
    (failure,) = fingerprint_drift(_document(extra=1), committed)
    assert failure.startswith("one.extra:")
    assert "expected None, got 1" in failure


def test_fingerprint_drift_skips_what_the_committed_document_lacks():
    current = _document()
    assert fingerprint_drift(current, {"config": current["config"]}) == []
    unfingerprinted = _document()
    del unfingerprinted["scenarios"]["one"]["fingerprint"]
    assert fingerprint_drift(current, unfingerprinted) == []
    # The other way round every committed key is missing from the run.
    assert len(fingerprint_drift(unfingerprinted, current)) == 3


def test_fingerprint_drift_is_skipped_across_configs():
    committed = _document()
    moved = _document(state="def")
    moved["config"]["rows"] = 11
    assert fingerprint_drift(moved, committed) == []


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

    (failure,) = fingerprint_drift(document("b"), document("a"))
    assert failure.startswith("serve.client-1.state: fingerprint diverged")


def test_piece_map_sha256_covers_labels_order_and_values():
    maps = [("R.A1", [3, 9], [1.5, 7.0]), ("R.A2", [4], [2.0])]
    digest = piece_map_sha256(maps)
    assert piece_map_sha256(maps) == digest
    narrowed = [
        (label, np.asarray(cuts, dtype=np.int32), np.asarray(pivots))
        for label, cuts, pivots in maps
    ]
    assert piece_map_sha256(narrowed) == digest
    assert piece_map_sha256(maps[::-1]) != digest
    assert piece_map_sha256(maps, pivots_first=True) != digest
    moved = [("R.A1", [3, 10], [1.5, 7.0]), maps[1]]
    assert piece_map_sha256(moved) != digest


def _suite(sound: bool = True) -> Suite:
    def run(rows, ops, seed, mode):
        document = _document()
        document["config"] = {"rows": rows, "ops": ops, "mode": mode}
        document["sound"] = sound
        return document

    return Suite(
        name="toy",
        run=run,
        text=lambda document: f"toy run, {document['config']['rows']} rows",
        gate=lambda document: [] if document["sound"] else ["toy: unsound"],
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


def test_run_command_writes_no_json_without_out(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text, code = _run(_suite(), tmp_path, out=None)
    assert (text, code) == ("toy run, 10 rows", 0)
    assert list(tmp_path.iterdir()) == []


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
    drifted["scenarios"]["one"]["fingerprint"]["rows"] = 8
    committed.write_text(json.dumps(drifted))
    text, code = _run(_suite(sound=False), tmp_path, check_path=str(committed))
    assert code == 1
    failures = text.split("TOY GATE FAILURES:\n")[1].splitlines()
    # In-run gate first, then one line per moved fingerprint key.
    assert [f.split(":")[0] for f in failures] == [
        "toy",
        "one.state",
        "one.rows",
    ]
    assert failures == check_regression(
        _suite(sound=False),
        json.loads((tmp_path / "out.json").read_text()),
        drifted,
    )


@pytest.mark.parametrize(
    "name, rows, ops",
    [
        ("e2e", 2_000, 48),
        ("serve", 2_000, 16),
        ("mixed", 1_500, 40),
        ("snapshot", 4_000, 60),
        ("chaos", 4_000, 96),
    ],
)
def test_two_runs_of_a_suite_agree_on_everything_check_gates(name, rows, ops):
    """The gate is a function of the commit: every scenario carries a
    fingerprint (serve: one per client) and a second run moves none."""
    suite = importlib.import_module(f"repro.bench.{name}").SUITE
    first = suite.run(rows, ops, 7, "quick")
    second = suite.run(rows, ops, 7, "quick")
    for data in first["scenarios"].values():
        assert data.get("fingerprint") or data["fingerprints"]
    assert first["config"] == second["config"]
    assert list(first["scenarios"]) == list(second["scenarios"])
    assert fingerprint_drift(second, first) == []
