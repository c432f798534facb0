"""Every workload at smoke sizes, untraced and traced, and the
agreement between the runner's registry and ``BENCHMARK.json``."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from perfbench import registry
from perfbench.compare import verdict
from perfbench.env import ROOT

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

CASES = [
    (workload, trace)
    for workload in registry.workload_names()
    for trace in (0, 1)
]


@pytest.fixture(scope="module")
def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _smoke(case: tuple[str, int]) -> subprocess.CompletedProcess:
    workload, trace = case
    return subprocess.run(
        [
            sys.executable, "-m", "perfbench", "--workload", workload,
            "--seed", "7", "--seconds", "0.2", "--trace", str(trace),
            "--smoke",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def smoke_runs() -> dict[tuple[str, int], subprocess.CompletedProcess]:
    # One process per workload, as the benchmark runs them; two at a
    # time keeps the whole module inside its 15 s budget.
    with ThreadPoolExecutor(max_workers=min(2, os.cpu_count() or 1)) as pool:
        return dict(zip(CASES, pool.map(_smoke, CASES)))


def test_registry_and_benchmark_json_agree(declared):
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == [
        (w.name, w.why) for w in registry.gated_workloads()
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in declared["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in registry.gated()]
    assert [
        (m["name"], m["unit"], m["better"]) for m in declared["per_layer"]
    ] == [(m.name, m.unit, m.better) for m in registry.PER_LAYER]
    assert declared["paths"] == ["perfbench"]
    assert "setup_s" in {m["name"] for m in declared["end_to_end"]}


def test_declared_names_and_units_are_well_formed():
    metrics = registry.END_TO_END + registry.PER_LAYER
    names = [m.name for m in metrics] + list(registry.workload_names())
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in metrics:
        assert UNIT.fullmatch(metric.unit), metric
        assert metric.better in ("lower", "higher")
    for metric in registry.END_TO_END:
        assert 0.0 <= metric.bound <= 0.25
        for workload in metric.workloads or ():
            assert workload in registry.workload_names()


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-trace{c[1]}")
def test_workload_prints_every_declared_metric(case, smoke_runs, declared):
    workload, trace = case
    done = smoke_runs[case]
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = declared["per_layer"] if trace else declared["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    # Every metric the registry defines on this workload is printed by
    # name with its unit, including the ones the result line omits.
    printed = {
        parts[0]: parts[2]
        for parts in (line.split() for line in lines[:-1])
        if len(parts) == 3
    }
    expected = registry.PER_LAYER if trace else tuple(
        m for m in registry.END_TO_END if m.applies_to(workload)
    )
    for metric in expected:
        assert printed.get(metric.name) == metric.unit, metric.name
    if not trace:
        for metric in wanted:
            assert result["metrics"][metric["name"]]["value"] > 0


def test_smoke_isolation_of_layers(smoke_runs):
    """Layers a workload never enters read exactly zero."""
    def self_us(workload: str, layer: str) -> float:
        result = json.loads(
            smoke_runs[(workload, 1)].stdout.strip().splitlines()[-1]
        )
        return result["metrics"][f"{layer}.self_us_per_op"]["value"]

    for workload in registry.workload_names():
        serving = workload == "serve_clients"
        assert (self_us(workload, "serving.frontend") > 0) == serving
        assert (self_us(workload, "serving.window") > 0) == serving
        durable = workload == "durable_cycle"
        assert (self_us(workload, "persist") > 0) == durable
        workers = workload == "burst_idle_workers"
        assert (self_us(workload, "holistic.workers") > 0) == workers
        assert (self_us(workload, "cracking.concurrency") > 0) == workers


def test_compare_verdicts():
    metric = registry.Metric("latency", "us", "lower", 0.10)
    steady = [10.0 + 0.01 * i for i in range(10)]
    assert verdict(metric, steady, [x * 1.05 for x in steady])[0] == "ok"
    assert verdict(metric, steady, [x * 1.20 for x in steady])[0] == "worse"
    noisy_a = [8.0, 12.0] * 5
    noisy_b = [9.0, 13.0] * 5
    assert verdict(metric, noisy_a, noisy_b)[0] == "unresolved"
    # Disjoint sides resolve a difference however wide their spread.
    assert verdict(metric, noisy_a, [x * 3 for x in noisy_a])[0] == "worse"
    higher = registry.Metric("rate", "1/s", "higher", 0.10)
    assert verdict(higher, steady, [x * 0.8 for x in steady])[0] == "worse"
    assert verdict(higher, steady, [x * 1.5 for x in steady])[0] == "ok"
