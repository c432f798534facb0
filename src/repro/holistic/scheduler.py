"""The idle-time scheduler: continuous tuning made concrete.

Given an idle window -- expressed either as a number of refinement
actions (the paper's Exp1 formulation: *"we assume as idle time the
time needed to apply X random index refinement actions"*) or as a time
budget in seconds -- the kernel spends it in one loop,
:func:`spend_window`: step after step of tiny refinements until the
window closes or every candidate is refined to the cache target.  The
serial scheduler's step is one policy choice plus one action; the
worker pool's step is one planned round of batches
(:mod:`repro.holistic.workers`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.holistic.policies import TuningPolicy
from repro.holistic.ranking import ColumnRanking
from repro.holistic.tuner import AuxiliaryTuner
from repro.simtime.clock import Clock


@dataclass(slots=True)
class TuningReport:
    """What one idle window achieved.

    ``stalls`` and ``busy_s`` are only populated by the parallel worker
    pool; serial windows leave them at zero.
    """

    actions_attempted: int = 0
    actions_effective: int = 0
    stop_reason: str = ""
    stalls: int = 0
    busy_s: float = 0.0

    def merge(self, other: "TuningReport") -> None:
        self.actions_attempted += other.actions_attempted
        self.actions_effective += other.actions_effective
        self.stalls += other.stalls
        self.busy_s += other.busy_s


def spend_window(
    report: TuningReport,
    actions: int | None,
    budget_s: float | None,
    elapsed: Callable[[], float],
    step: Callable[[int], bool],
    round_size: int = 1,
) -> TuningReport:
    """Spend one idle window: the kernel's idle loop.

    An action window closes when ``report.actions_attempted`` reaches
    ``actions``; each step is offered the attempts still open.  A time
    window checks ``elapsed() < budget_s`` before each step of
    ``round_size`` attempts, so the last step may slightly overshoot,
    as a real kernel only notices the window closing after finishing
    its current work.  ``step(attempts)`` makes up to ``attempts``
    attempts, counts them on ``report`` and returns False when it found
    nothing left to refine.
    """
    while True:
        if actions is not None:
            attempts = actions - report.actions_attempted
            if attempts <= 0:
                report.stop_reason = "action budget exhausted"
                return report
        elif elapsed() < budget_s:
            attempts = round_size
        else:
            report.stop_reason = "time budget exhausted"
            return report
        if not step(attempts):
            report.stop_reason = "all candidates refined"
            return report


class IdleScheduler:
    """Drives serial auxiliary tuning through idle windows."""

    def __init__(
        self,
        clock: Clock,
        ranking: ColumnRanking,
        policy: TuningPolicy,
        tuner: AuxiliaryTuner,
    ) -> None:
        self.clock = clock
        self.ranking = ranking
        self.policy = policy
        self.tuner = tuner
        # Optional durability hook (repro.persist): when set, idle
        # cycles may be spent writing an incremental checkpoint instead
        # of a crack.  Serial windows only -- the parallel worker pool
        # never checkpoints, so snapshot writes see settled state.
        self.checkpointer = None

    def run_actions(self, actions: int) -> TuningReport:
        """Perform up to ``actions`` refinement actions."""
        return self._spend(actions, None)

    def run_budget(self, budget_s: float) -> TuningReport:
        """Perform refinement actions until ``budget_s`` is used up."""
        return self._spend(None, budget_s)

    def _spend(
        self, actions: int | None, budget_s: float | None
    ) -> TuningReport:
        report = TuningReport()
        start = self.clock.now()
        return spend_window(
            report,
            actions,
            budget_s,
            lambda: self.clock.now() - start,
            lambda attempts: self._step(report),
        )

    def run_actions_batched(self, actions: int) -> TuningReport:
        """Perform ``actions`` refinements, batched per column.

        The action budget is split evenly over the unrefined
        candidates and each column receives its share as one
        multi-pivot crack pass -- cheaper than the same number of
        sequential cracks (paper §3, "in one go").
        """
        report = TuningReport()
        candidates = self.ranking.unrefined_states()
        if not candidates:
            report.stop_reason = "all candidates refined"
            return report
        share, remainder = divmod(actions, len(candidates))
        for i, state in enumerate(candidates):
            quota = share + (1 if i < remainder else 0)
            if quota == 0:
                continue
            report.actions_attempted += quota
            effective = self.tuner.perform_batch(state.index, quota)
            if effective:
                report.actions_effective += effective
                self.ranking.note_tuning_action(state.ref, effective)
        report.stop_reason = "action budget exhausted"
        return report

    def _step(self, report: TuningReport) -> bool:
        """One policy choice + one action; False when nothing is left."""
        checkpointer = self.checkpointer
        if checkpointer is not None and checkpointer.due(self.ranking):
            if checkpointer.perform(self.clock):
                report.actions_attempted += 1
                report.actions_effective += 1
                return True
        state = self.policy.choose(self.ranking)
        if state is None:
            return False
        report.actions_attempted += 1
        if self.tuner.perform(state.index):
            report.actions_effective += 1
            self.ranking.note_tuning_action(state.ref)
        return True
