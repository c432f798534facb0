"""The end-to-end session fingerprint gate."""

from __future__ import annotations

import json

from repro.bench.e2e import SUITE, e2e_text, run_e2e
from repro.bench.harness import check_regression, run_command

_TINY = dict(rows=2000, queries=48)


def _tiny_doc(**overrides):
    config = {**_TINY, **overrides}
    return run_e2e(
        strategies=("adaptive", "holistic", "holistic_workers"), **config
    )


def test_run_e2e_document_shape():
    doc = _tiny_doc()
    assert doc["schema"] == "e2e-v2"
    assert set(doc) == {"schema", "config", "scenarios"}
    assert set(doc["config"]) == {"rows", "queries", "columns", "seed", "mode"}
    # One run a strategy, under its ``batch1`` name.
    assert set(doc["scenarios"]) == {
        "adaptive/batch1",
        "holistic/batch1",
        "holistic_workers/batch1",
    }
    for data in doc["scenarios"].values():
        assert set(data) == {"ops", "unit", "fingerprint"}
        assert data["ops"] == 48
        assert data["fingerprint"]["queries"] == 48
    assert "holistic_workers/batch1" in e2e_text(doc)


def test_check_regression_passes_against_self_and_detects_drift():
    doc = _tiny_doc()
    # No in-run claim: only drift from a committed document fails.
    assert SUITE.gate(doc) == []
    assert check_regression(SUITE, doc, doc) == []
    diverged = json.loads(json.dumps(doc))
    diverged["scenarios"]["holistic_workers/batch1"]["fingerprint"][
        "state_sha256"
    ] = "bogus"
    (failure,) = check_regression(SUITE, doc, diverged)
    assert failure.startswith(
        "holistic_workers/batch1.state_sha256: fingerprint diverged"
    )


def test_run_e2e_command_writes_output(tmp_path):
    out = tmp_path / "bench.json"
    text, exit_code = run_command(
        SUITE,
        rows=2000,
        ops=32,
        seed=7,
        quick=True,
        out=str(out),
        check_path=None,
    )
    assert exit_code == 0
    assert "session fingerprints" in text
    document = json.loads(out.read_text())
    assert document["config"]["rows"] == 2000
    # Round-trip the check gate against the file it just wrote.
    text, exit_code = run_command(
        SUITE,
        rows=2000,
        ops=32,
        seed=7,
        quick=True,
        out=str(tmp_path / "again.json"),
        check_path=str(out),
    )
    assert exit_code == 0
    assert text.endswith("e2e gate passed")
