"""The end-to-end batch == sequential gate."""

from __future__ import annotations

import json

from repro.bench.e2e import SUITE, e2e_text, run_e2e
from repro.bench.harness import check_regression, run_command

_TINY = dict(rows=2000, queries=48)


def _tiny_doc(**overrides):
    config = {**_TINY, **overrides}
    return run_e2e(
        batch_sizes=(1, 8),
        strategies=("adaptive", "holistic", "holistic_workers"),
        **config,
    )


def test_run_e2e_document_shape_and_equivalence():
    doc = _tiny_doc()
    assert doc["schema"] == "e2e-v2"
    assert set(doc["scenarios"]) == {
        "adaptive/batch1",
        "adaptive/batch8",
        "holistic/batch1",
        "holistic/batch8",
        "holistic_workers/batch1",
        "holistic_workers/batch8",
    }
    for data in doc["scenarios"].values():
        assert set(data) == {"ops", "unit", "fingerprint"}
        assert data["ops"] == 48
        assert data["fingerprint"]["queries"] == 48
    # The headline correctness proof: batch == sequential fingerprints,
    # idle windows drained by the worker pool included.
    assert doc["batch_equals_sequential"] == {
        "adaptive": True,
        "holistic": True,
        "holistic_workers": True,
    }
    assert "holistic_workers/batch1" in e2e_text(doc)


def test_fingerprints_identical_across_batch_sizes():
    doc = _tiny_doc()
    for strategy in ("adaptive", "holistic", "holistic_workers"):
        batch1 = doc["scenarios"][f"{strategy}/batch1"]["fingerprint"]
        batch8 = doc["scenarios"][f"{strategy}/batch8"]["fingerprint"]
        assert batch8 == batch1


def test_check_regression_passes_against_self_and_detects_drift():
    doc = _tiny_doc()
    assert check_regression(SUITE, doc, doc) == []
    diverged = json.loads(json.dumps(doc))
    diverged["scenarios"]["adaptive/batch1"]["fingerprint"][
        "state_sha256"
    ] = "bogus"
    failures = check_regression(SUITE, doc, diverged)
    assert any("fingerprint diverged" in f for f in failures)
    broken = json.loads(json.dumps(doc))
    broken["batch_equals_sequential"]["adaptive"] = False
    failures = check_regression(SUITE, broken, doc)
    assert any("diverged from sequential" in f for f in failures)


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
    assert "batch == sequential" in text
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
