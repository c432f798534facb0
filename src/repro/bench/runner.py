"""Command-line entry point of the bench harness.

Usage::

    python -m repro.bench exp1 --scale small --x 10 100 1000
    python -m repro.bench table2
    python -m repro.bench exp2
    python -m repro.bench parallel
    python -m repro.bench table1
    python -m repro.bench figure1
    python -m repro.bench figure2
    python -m repro.bench ablation-policies
    python -m repro.bench ablation-stochastic
    python -m repro.bench ablation-cache
    python -m repro.bench ablation-batch
    python -m repro.bench e2e --quick
    python -m repro.bench serve --quick
    python -m repro.bench mixed --quick
    python -m repro.bench snapshot --quick
    python -m repro.bench chaos --quick
    python -m repro.bench all

The paper-artefact commands print the rows/series of the corresponding
table or figure, with costs projected to the paper's 10^8-row testbed;
``all`` prints every one of them.  ``e2e``, ``serve``, ``mixed``,
``snapshot`` and ``chaos`` are correctness gates (fingerprints, digests
and oracle verdicts, no wall clock) and go through
:func:`repro.bench.harness.run_command`; wall-clock time is measured
by ``python3 -m perfbench``.
"""

from __future__ import annotations

import argparse
import importlib

from repro.config import available_scales, scale_by_name
from repro.bench.ablations import (
    ablation_batch_tuning,
    ablation_cache_target,
    ablation_policies,
    ablation_stochastic,
    ablation_text,
)
from repro.bench.cracking_demo import figure2_text
from repro.bench.exp1 import PAPER_X_VALUES, figure3_text, run_exp1, table2_text
from repro.bench.exp2 import figure4_text, run_exp2
from repro.bench.exp_parallel import (
    DEFAULT_WORKER_COUNTS,
    expp_text,
    run_parallel_sweep,
)
from repro.bench.features import table1_text
from repro.bench.harness import run_command
from repro.bench.timeline import figure1_text

#: Ablation commands in ``all`` order: title and sweep function.
_ABLATIONS = {
    "ablation-policies": (
        "Ablation A1: resource-spreading policies",
        ablation_policies,
    ),
    "ablation-stochastic": (
        "Ablation A2: plain vs stochastic cracking on a sequential sweep",
        ablation_stochastic,
    ),
    "ablation-batch": (
        "Ablation A4: sequential vs batched idle tuning",
        ablation_batch_tuning,
    ),
    "ablation-cache": (
        "Ablation A3: cache-fit stopping criterion",
        ablation_cache_target,
    ),
}

#: The correctness-gate suites: each is ``repro.bench.<name>`` and
#: exposes a ``SUITE``; imported on demand (chaos and snapshot pull in
#: the whole persist and fault planes).
_SUITES = ("e2e", "serve", "mixed", "snapshot", "chaos")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description=(
            "Regenerate the tables and figures of 'Holistic Indexing' "
            "(SIGMOD 2012)"
        ),
    )
    parser.add_argument(
        "command",
        choices=[
            "exp1",
            "table2",
            "exp2",
            "parallel",
            "table1",
            "figure1",
            "figure2",
            "ablation-policies",
            "ablation-stochastic",
            "ablation-cache",
            "ablation-batch",
            *_SUITES,
            "all",
        ],
        help="which artefact to regenerate",
    )
    parser.add_argument(
        "--scale",
        default="small",
        choices=available_scales(),
        help="experiment scale (default: small)",
    )
    parser.add_argument(
        "--x",
        type=int,
        nargs="+",
        default=list(PAPER_X_VALUES),
        help="refinement actions per idle window (default: 10 100 1000)",
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="experiment seed"
    )
    parser.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=None,
        help="worker counts for the parallel sweep (default: 0 1 2 4)",
    )
    gates = parser.add_argument_group("correctness-gate suite options")
    gates.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized run, the size of the committed BENCH_*_quick.json",
    )
    gates.add_argument(
        "--rows", type=int, default=None, help="suite row count"
    )
    gates.add_argument(
        "--queries",
        type=int,
        default=None,
        help=(
            "suite query count (serve: per client; mixed, snapshot, "
            "chaos: trace ops)"
        ),
    )
    gates.add_argument(
        "--out",
        default=None,
        help="write the JSON document here (default: not written)",
    )
    gates.add_argument(
        "--check",
        default=None,
        help=(
            "compare fingerprints with this committed JSON document; "
            "exit non-zero on any divergence"
        ),
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    scale = scale_by_name(args.scale)
    outputs: list[str] = []

    if args.command in _SUITES:
        suite = importlib.import_module(f"repro.bench.{args.command}").SUITE
        text, exit_code = run_command(
            suite,
            rows=args.rows,
            ops=args.queries,
            seed=args.seed,
            quick=args.quick,
            out=args.out,
            check_path=args.check,
        )
        print(text)
        return exit_code

    def want(name: str) -> bool:
        return args.command in (name, "all")

    if want("exp1") or want("table2"):
        result = run_exp1(scale, tuple(args.x), seed=args.seed)
        if want("exp1"):
            outputs.append(figure3_text(result))
        if want("table2"):
            outputs.append(table2_text(result))
    if want("exp2"):
        exp2_result = run_exp2(scale, seed=args.seed)
        outputs.append(figure4_text(exp2_result))
    if want("parallel"):
        counts = (
            tuple(args.workers)
            if args.workers is not None
            else DEFAULT_WORKER_COUNTS
        )
        outputs.append(
            expp_text(
                run_parallel_sweep(
                    scale, worker_counts=counts, seed=args.seed
                )
            )
        )
    if want("table1"):
        outputs.append(table1_text())
    if want("figure1"):
        outputs.append(figure1_text(seed=args.seed))
    if want("figure2"):
        outputs.append(figure2_text())
    for command, (title, ablation) in _ABLATIONS.items():
        if want(command):
            outputs.append(
                ablation_text(
                    f"{title} ({scale.name} scale)",
                    ablation(scale, seed=args.seed),
                )
            )
    print("\n\n".join(outputs))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
