"""Bench harness: regenerates every table and figure of the paper.

See PAPER.md ("Evaluation shape") for the experiment index.  Each
artefact has a dedicated module and a CLI entry (``python -m
repro.bench <command>``); the five correctness-gate suites (``e2e``,
``serve``, ``mixed``, ``snapshot``, ``chaos``) share
:mod:`repro.bench.harness` and the trace driver of
:mod:`repro.bench.oracle`.
"""

from repro.bench.ablations import (
    AblationRow,
    ablation_cache_target,
    ablation_policies,
    ablation_stochastic,
    ablation_text,
)
from repro.bench.cracking_demo import figure2_text
from repro.bench.exp1 import (
    EXP1_STRATEGIES,
    PAPER_X_VALUES,
    Exp1Result,
    StrategyRun,
    figure3_text,
    run_exp1,
    table2_rows,
    table2_text,
)
from repro.bench.exp2 import Exp2Result, figure4_text, run_exp2
from repro.bench.exp_parallel import (
    DEFAULT_WORKER_COUNTS,
    ParallelRun,
    ParallelSweepResult,
    expp_text,
    run_parallel_sweep,
)
from repro.bench.features import (
    PAPER_TABLE1,
    collect_features,
    table1_text,
)
from repro.bench.timeline import figure1_text

__all__ = [
    "AblationRow",
    "DEFAULT_WORKER_COUNTS",
    "EXP1_STRATEGIES",
    "Exp1Result",
    "Exp2Result",
    "PAPER_TABLE1",
    "PAPER_X_VALUES",
    "ParallelRun",
    "ParallelSweepResult",
    "StrategyRun",
    "ablation_cache_target",
    "ablation_policies",
    "ablation_stochastic",
    "ablation_text",
    "collect_features",
    "expp_text",
    "figure1_text",
    "figure2_text",
    "figure3_text",
    "figure4_text",
    "run_exp1",
    "run_exp2",
    "run_parallel_sweep",
    "table1_text",
    "table2_rows",
    "table2_text",
]
