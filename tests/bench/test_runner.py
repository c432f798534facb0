"""Unit tests for the bench CLI."""

import json

import pytest

from repro.bench.runner import main


def test_table1_command(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "Holistic" in out


def test_figure2_command(capsys):
    assert main(["figure2"]) == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out
    assert "after Q2" in out


def test_exp1_and_table2_at_tiny_scale(capsys):
    assert main(["table2", "--scale", "tiny", "--x", "10"]) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out
    assert "X=10" in out
    assert "Scan" in out and "Holistic" in out


def test_exp1_figure_output(capsys):
    assert main(["exp1", "--scale", "tiny", "--x", "10"]) == 0
    out = capsys.readouterr().out
    assert "Figure 3" in out
    assert "T_init" in out
    assert "holistic" in out


def test_exp2_command(capsys):
    assert main(["exp2", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "Figure 4" in out
    assert "ratio" in out


def test_figure1_command(capsys):
    assert main(["figure1"]) == 0
    out = capsys.readouterr().out
    assert "Figure 1" in out
    assert "[holistic]" in out


def test_suite_command_writes_checks_and_exits_nonzero_on_drift(
    tmp_path, capsys
):
    committed = tmp_path / "committed.json"
    sizes = ["e2e", "--rows", "2000", "--queries", "32"]
    assert main([*sizes, "--out", str(committed)]) == 0
    document = json.loads(committed.read_text())
    assert document["config"]["rows"] == 2_000
    assert document["config"]["queries"] == 32
    assert main([*sizes, "--check", str(committed)]) == 0
    assert capsys.readouterr().out.endswith("e2e gate passed\n")
    document["scenarios"]["scan/batch1"]["fingerprint"]["result_rows"] += 1
    committed.write_text(json.dumps(document))
    assert main([*sizes, "--check", str(committed)]) == 1
    assert "scan/batch1.result_rows: fingerprint diverged" in (
        capsys.readouterr().out
    )


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["figure9"])


def test_unknown_scale_rejected():
    with pytest.raises(SystemExit):
        main(["table1", "--scale", "galactic"])


@pytest.mark.slow
def test_ablation_commands(capsys):
    assert main(["ablation-stochastic", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "standard" in out and "ddr" in out
