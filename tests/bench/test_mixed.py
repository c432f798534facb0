"""The mixed read/write oracle gate."""

from __future__ import annotations

import json

from repro.bench.harness import check_regression, run_command
from repro.bench.mixed import SUITE, mixed_text, run_mixed

_TINY = dict(rows=1_500, ops=40)


def _tiny_doc(**overrides):
    return run_mixed(**{**_TINY, **overrides})


def test_run_mixed_document_shape():
    doc = _tiny_doc(mixes=(0.2,))
    assert doc["schema"] == "mixed-v2"
    names = set(doc["scenarios"])
    for mode in (
        "reference/naive",
        "adaptive/sequential",
        "adaptive/batched",
        "maintained/ripple",
        "holistic/serving",
        "holistic_workers/serving",
    ):
        assert f"mix20/{mode}" in names
    assert "drift/online/sequential" in names
    assert "drift/holistic/sequential" in names
    assert "sideways/cracked/select_project" in names
    for data in doc["scenarios"].values():
        assert set(data) == {
            "ops",
            "unit",
            "fingerprint",
            "matches_reference",
        }
        assert data["matches_reference"]
        assert set(data["fingerprint"]) == {
            "queries",
            "updates",
            "result_rows",
            "result_sha256",
        }
    # The headline claim: every engine path reproduced the serial
    # reference bit for bit, including the worker-racing path.
    assert all(doc["oracle_matches_reference"].values())
    assert doc["sideways_equals_scan"]
    ratio = doc["shootout"]["virtual_response_ratio_online_vs_holistic"]
    assert ratio is not None and ratio > 0


def test_engine_modes_share_the_reference_fingerprint():
    doc = _tiny_doc(mixes=(0.35,))
    digests = {
        name: data["fingerprint"]["result_sha256"]
        for name, data in doc["scenarios"].items()
        if name.startswith("mix35/")
    }
    assert len(set(digests.values())) == 1, digests


def test_mixed_text_renders():
    doc = _tiny_doc(mixes=(0.2,))
    text = mixed_text(doc)
    assert "mix20/maintained/ripple" in text
    assert "ok" in text
    assert "COLT-vs-holistic" in text


def test_check_regression_passes_against_itself():
    doc = _tiny_doc(mixes=(0.2,))
    assert check_regression(SUITE, doc, doc) == []


def test_check_regression_flags_fingerprint_drift():
    doc = _tiny_doc(mixes=(0.2,))
    committed = json.loads(json.dumps(doc))
    committed["scenarios"]["mix20/maintained/ripple"]["fingerprint"][
        "result_sha256"
    ] = "0" * 64
    (failure,) = check_regression(SUITE, doc, committed)
    assert failure.startswith("mix20/maintained/ripple.result_sha256:")


def test_check_regression_flags_in_run_divergence():
    doc = _tiny_doc(mixes=(0.2,))
    doc["oracle_matches_reference"]["mix20/adaptive/batched"] = False
    failures = check_regression(SUITE, doc, doc)
    assert any("diverged from the serial reference" in f for f in failures)


def test_check_regression_skips_fingerprints_across_configs():
    doc = _tiny_doc(mixes=(0.2,))
    committed = json.loads(json.dumps(doc))
    committed["config"]["rows"] = doc["config"]["rows"] + 1
    committed["scenarios"]["mix20/adaptive/sequential"]["fingerprint"][
        "result_sha256"
    ] = "0" * 64
    assert check_regression(SUITE, doc, committed) == []


def test_run_mixed_command_round_trip(tmp_path):
    out = tmp_path / "mixed.json"
    text, code = run_command(
        SUITE,
        rows=1_500,
        ops=40,
        seed=7,
        quick=True,
        out=str(out),
        check_path=None,
    )
    assert code == 0
    assert out.exists()
    doc = json.loads(out.read_text())
    assert doc["schema"] == "mixed-v2"
    assert "wrote" in text

    text, code = run_command(
        SUITE,
        rows=1_500,
        ops=40,
        seed=7,
        quick=True,
        out=str(tmp_path / "mixed2.json"),
        check_path=str(out),
    )
    assert code == 0
    assert text.endswith("mixed gate passed")


def test_run_mixed_command_fails_on_bad_baseline(tmp_path):
    out = tmp_path / "mixed.json"
    _, code = run_command(
        SUITE,
        rows=1_500,
        ops=40,
        seed=7,
        quick=True,
        out=str(out),
        check_path=None,
    )
    assert code == 0
    doc = json.loads(out.read_text())
    name = next(iter(doc["scenarios"]))
    doc["scenarios"][name]["fingerprint"]["result_rows"] += 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    text, code = run_command(
        SUITE,
        rows=1_500,
        ops=40,
        seed=7,
        quick=True,
        out=str(tmp_path / "mixed3.json"),
        check_path=str(bad),
    )
    assert code == 1
    assert "FAILURES" in text
