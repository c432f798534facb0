"""``python -m perfbench compare A.json B.json``: is B worse than A?

Both files are reports of ``python -m perfbench --repeat K`` (or a
single run).  For every workload x end-to-end metric the tool prints
each side's median and quartiles over its runs, B's median as a ratio
of A's, the metric's bound and a verdict:

``ok``
    B's median is not worse than A's by more than the bound.
``worse``
    it is, and the runs are steady enough (or disjoint enough) to say
    so.
``unresolved``
    a side's spread (quartile distance / median) is wider than the
    bound and the two sides' runs interleave, so the data cannot tell
    ``ok`` from ``worse`` -- reported as such, never as unchanged.

Counts that must repeat exactly are compared for equality.  The exit
code is 1 if any row is ``worse`` or an exact count differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from perfbench import registry

#: Traced counts that repeat exactly for one seed (where worker
#: threads race, only the answers do).
EXACT = (
    "simtime.virtual_response_s",
    "engine.result_rows",
    "cracking.piecemap.pieces",
)
_RACY = ("burst_idle_workers",)


def load(path: Path) -> dict[tuple[str, bool], list[dict[str, object]]]:
    """Runs of a report keyed by (workload, traced)."""
    runs: dict[tuple[str, bool], list[dict[str, object]]] = {}
    for run in json.loads(path.read_text())["runs"]:
        runs.setdefault((run["workload"], run["trace"]), []).append(run)
    return runs


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, q1, q3) as the driver computes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def verdict(
    metric: registry.Metric, a: list[float], b: list[float]
) -> tuple[str, float, float]:
    """(verdict, B's worsening as a share of A's median, widest spread)."""
    a_median, a_q1, a_q3 = summary(a)
    b_median, b_q1, b_q3 = summary(b)
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (b_median - a_median) / a_median if a_median else (
        0.0 if b_median == a_median else float("inf")
    )
    spread = max(
        (a_q3 - a_q1) / a_median if a_median else 0.0,
        (b_q3 - b_q1) / b_median if b_median else 0.0,
    )
    # Disjoint sides resolve a difference however noisy each side is.
    disjoint = max(a) < min(b) or max(b) < min(a)
    if spread > metric.bound and not disjoint:
        return "unresolved", worse_by, spread
    return ("worse" if worse_by > metric.bound else "ok"), worse_by, spread


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python -m perfbench compare A.json B.json",
              file=sys.stderr)
        return 2
    a_runs, b_runs = load(Path(argv[0])), load(Path(argv[1]))
    bad = 0
    header = (
        f"{'workload':<19}{'metric':<26}{'unit':<6}"
        f"{'A median [q1, q3] n':<38}{'B median [q1, q3] n':<38}"
        f"{'B/A':>7}{'bound':>7}{'spread':>8}  verdict"
    )
    print(header)
    for workload in registry.workload_names():
        a_set = a_runs.get((workload, False), [])
        b_set = b_runs.get((workload, False), [])
        if not a_set or not b_set:
            continue
        for metric in registry.END_TO_END:
            if not metric.applies_to(workload):
                continue
            a = [run["metrics"][metric.name]["value"] for run in a_set]
            b = [run["metrics"][metric.name]["value"] for run in b_set]
            word, _, spread = verdict(metric, a, b)
            bad += word == "worse"
            sides = []
            for values in (a, b):
                median, q1, q3 = summary(values)
                sides.append(
                    f"{median:.5g} [{q1:.5g}, {q3:.5g}] {len(values)}"
                )
            a_median, b_median = summary(a)[0], summary(b)[0]
            ratio = f"{b_median / a_median:.3f}" if a_median else "-"
            print(
                f"{workload:<19}{metric.name:<26}{metric.unit:<6}"
                f"{sides[0]:<38}{sides[1]:<38}"
                f"{ratio:>7}{metric.bound:>7.2f}{spread:>8.3f}  {word}"
            )
    for workload in registry.workload_names():
        a_set = a_runs.get((workload, True), [])
        b_set = b_runs.get((workload, True), [])
        for name in EXACT:
            if name != "engine.result_rows" and workload in _RACY:
                continue  # which cracks land depends on thread timing
            # Compare run by run: the same seed must give the same count.
            a = {run["seed"]: run["metrics"][name]["value"] for run in a_set}
            b = {run["seed"]: run["metrics"][name]["value"] for run in b_set}
            shared = sorted(set(a) & set(b))
            if not shared:
                continue
            same = all(a[seed] == b[seed] for seed in shared)
            bad += not same
            print(
                f"{workload:<19}{name:<32}exact over seeds {shared}: "
                f"{'same' if same else 'DIFFERS'}"
            )
    return 1 if bad else 0
