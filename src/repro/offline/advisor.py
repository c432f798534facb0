"""The offline index advisor.

Given a representative workload sample and an idle-time budget, the
advisor scores each single-column candidate once with the what-if
optimizer, ranks the candidates by benefit per build-second and
greedily picks those that fit the budget -- the classic offline
auto-tuning loop of [1, 5, 6, 17].  The fundamental limitation the
paper leans on is visible right here: with a budget smaller than one
build cost, the advisor can recommend nothing useful, while holistic
indexing would spend the same budget on partial refinements.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.offline.whatif import WhatIfOptimizer, WorkloadStatement
from repro.storage.catalog import ColumnRef


def benefit_per_build_second(benefit_s: float, build_cost_s: float) -> float:
    """A candidate's rank key: workload seconds saved per build-second."""
    if build_cost_s <= 0:
        # A free build is only infinitely attractive when it buys
        # something; a zero-benefit candidate must not outrank
        # genuinely beneficial ones in the greedy pick.
        return float("inf") if benefit_s > 0 else 0.0
    return benefit_s / build_cost_s


class OfflineAdvisor:
    """Greedy benefit-per-cost index selection under a time budget."""

    def __init__(self, optimizer: WhatIfOptimizer) -> None:
        self.optimizer = optimizer

    def advise(
        self,
        workload: list[WorkloadStatement],
        budget_s: float | None = None,
    ) -> tuple[list[ColumnRef], list[ColumnRef]]:
        """Pick indexes greedily by benefit per build-second.

        A candidate's benefit is the weighted sum of
        :meth:`WhatIfOptimizer.query_gain` over its own statements.
        Candidates are ranked by a stable sort, so ties keep the
        workload's first-seen order; the pick stops at the first
        candidate that buys nothing and passes over any whose build no
        longer fits the remaining budget.

        Args:
            workload: representative statement sample with weights.
            budget_s: total build-time budget; ``None`` = unlimited.

        Returns:
            The picked columns in build order, and the beneficial
            candidates the budget left out.

        Raises:
            ConfigError: if the budget is negative.
        """
        if budget_s is not None and budget_s < 0:
            raise ConfigError(f"budget must be >= 0, got {budget_s}")
        optimizer = self.optimizer
        benefit: dict[ColumnRef, float] = {}
        for statement in workload:
            ref = statement.ref
            benefit[ref] = benefit.get(ref, 0.0) + (
                statement.weight * optimizer.query_gain(ref)
            )
        cost = {ref: optimizer.build_cost(ref) for ref in benefit}
        ranked = sorted(
            benefit,
            key=lambda ref: benefit_per_build_second(benefit[ref], cost[ref]),
            reverse=True,
        )
        remaining = float("inf") if budget_s is None else float(budget_s)
        picked: list[ColumnRef] = []
        left_out: list[ColumnRef] = []
        for ref in ranked:
            if benefit[ref] <= 0:
                break
            if cost[ref] > remaining:
                left_out.append(ref)
                continue
            picked.append(ref)
            remaining -= cost[ref]
        return picked, left_out
