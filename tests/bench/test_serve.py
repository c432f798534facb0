"""The concurrent-serving serve == solo gate."""

from __future__ import annotations

import json

from repro.bench.harness import check_regression, run_command
from repro.bench.serve import SUITE, run_serve, serve_text

_TINY = dict(rows=2_000, queries_per_client=24)


def _tiny_doc(**overrides):
    config = {**_TINY, **overrides}
    return run_serve(
        client_counts=(1, 3),
        strategies=("adaptive", "holistic"),
        **config,
    )


def test_run_serve_document_shape_and_equivalence():
    doc = _tiny_doc()
    assert doc["schema"] == "serve-v2"
    assert set(doc["scenarios"]) == {
        "adaptive/solo/clients1",
        "adaptive/solo/clients3",
        "adaptive/serve/clients1",
        "adaptive/serve/clients3",
        "holistic/solo/clients1",
        "holistic/solo/clients3",
        "holistic/serve/clients1",
        "holistic/serve/clients3",
    }
    for name, data in doc["scenarios"].items():
        clients = int(name.rsplit("clients", 1)[1])
        assert data["ops"] == clients * 24
        assert len(data["fingerprints"]) == clients
        if "/serve/" in name:
            assert set(data) == {"ops", "unit", "fingerprints", "windows"}
            assert data["windows"] >= 1
        else:
            assert set(data) == {"ops", "unit", "fingerprints"}
    # The headline correctness proof: every serving client's
    # fingerprint equals its solo run's.
    assert all(doc["serve_equals_solo"].values())
    assert "adaptive/serve/clients3" in serve_text(doc)


def test_check_regression_passes_against_self_and_detects_drift():
    doc = _tiny_doc()
    assert check_regression(SUITE, doc, doc) == []
    diverged = json.loads(json.dumps(doc))
    diverged["scenarios"]["adaptive/serve/clients3"]["fingerprints"][
        "client-0"
    ]["state_sha256"] = "bogus"
    failures = check_regression(SUITE, doc, diverged)
    assert any("fingerprint diverged" in f for f in failures)
    broken = json.loads(json.dumps(doc))
    broken["serve_equals_solo"]["adaptive/serve/clients3"] = False
    failures = check_regression(SUITE, broken, doc)
    assert any("diverged from the solo baselines" in f for f in failures)


def test_run_serve_command_writes_output_and_gates(tmp_path):
    out = tmp_path / "bench.json"
    text, exit_code = run_command(
        SUITE,
        rows=2_000,
        ops=16,
        seed=7,
        quick=True,
        out=str(out),
        check_path=None,
    )
    assert exit_code == 0
    assert "Concurrent serving" in text
    document = json.loads(out.read_text())
    assert document["config"]["rows"] == 2_000
    assert document["config"]["client_counts"] == [1, 8]
    # Round-trip the check gate against the file it just wrote.
    text, exit_code = run_command(
        SUITE,
        rows=2_000,
        ops=16,
        seed=7,
        quick=True,
        out=str(tmp_path / "again.json"),
        check_path=str(out),
    )
    assert exit_code == 0
    assert text.endswith("serve gate passed")
