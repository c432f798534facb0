"""Tests for the wall-clock hot-path microbenchmark harness."""

import json

from repro.bench.harness import attach_baseline, check_regression
from repro.bench.hotpath import SUITE, hotpath_text, run_hotpath
from repro.bench.runner import main


def _tiny_run(**overrides):
    params = dict(rows=20_000, queries=60, seed=7, repeats=1)
    params.update(overrides)
    return run_hotpath(**params)


def test_run_hotpath_structure_and_determinism():
    first = _tiny_run()
    second = _tiny_run()
    assert first["schema"] == "hotpath-v1"
    names = set(first["scenarios"])
    assert {
        "serial_select",
        "serial_select_rowids",
        "batch_tuning",
        "worker_pool_2",
    } <= names
    for name, data in first["scenarios"].items():
        assert data["wall_s"] >= 0
        assert data["ops"] > 0
        assert data["throughput"] > 0
    # Deterministic scenarios fingerprint identically across runs.
    for name in ("serial_select", "serial_select_rowids", "batch_tuning"):
        assert (
            first["scenarios"][name]["fingerprint"]
            == second["scenarios"][name]["fingerprint"]
        ), name
    text = hotpath_text(first)
    assert "serial_select" in text


def test_check_regression_flags_slowdown_and_divergence():
    current = _tiny_run()
    committed = json.loads(json.dumps(current))  # deep copy
    assert check_regression(SUITE, current, committed) == []
    slow = json.loads(json.dumps(current))
    slow["scenarios"]["serial_select"]["throughput"] = (
        current["scenarios"]["serial_select"]["throughput"] * 10
    )
    failures = check_regression(SUITE, current, slow)
    assert any("regressed" in f for f in failures)
    diverged = json.loads(json.dumps(current))
    diverged["scenarios"]["batch_tuning"]["fingerprint"][
        "crack_count"
    ] = -1
    failures = check_regression(SUITE, current, diverged)
    assert any("diverged" in f for f in failures)


def test_attach_baseline_computes_speedups():
    current = _tiny_run()
    baseline = json.loads(json.dumps(current))
    for data in baseline["scenarios"].values():
        data["throughput"] = data["throughput"] / 2
    attach_baseline(current, baseline)
    assert current["speedup_vs_baseline"]["serial_select"] > 1.5


def test_cli_hotpath_writes_json(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code = main(
        [
            "hotpath",
            "--rows",
            "20000",
            "--queries",
            "50",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    document = json.loads(out.read_text())
    assert document["config"]["rows"] == 20_000
    printed = capsys.readouterr().out
    assert "Hot-path wall-clock microbenchmark" in printed


def test_cli_hotpath_check_gate(tmp_path, capsys):
    committed = tmp_path / "committed.json"
    out = tmp_path / "fresh.json"
    args = [
        "hotpath",
        "--rows",
        "20000",
        "--queries",
        "50",
        "--out",
        str(committed),
    ]
    assert main(args) == 0
    args = [
        "hotpath",
        "--rows",
        "20000",
        "--queries",
        "50",
        "--out",
        str(out),
        "--check",
        str(committed),
    ]
    # At this tiny scale wall-clock noise alone can trip the 2x
    # throughput limit, so only the deterministic half of the gate is
    # asserted (tests/bench/test_harness.py covers the throughput gate
    # on synthetic documents).
    main(args)
    printed = capsys.readouterr().out
    assert "gate passed" in printed or "GATE FAILURES" in printed
    assert "fingerprint diverged" not in printed
