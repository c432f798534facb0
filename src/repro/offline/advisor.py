"""The offline index advisor.

Given a representative workload sample and an idle-time budget, the
advisor enumerates single-column candidates, scores them with the
what-if optimizer, and greedily picks the set with the highest benefit
that fits the budget -- the classic offline auto-tuning loop of [1, 5,
6, 17].  The fundamental limitation the paper leans on is visible right
here: with a budget smaller than one build cost, the advisor can
recommend nothing useful, while holistic indexing would spend the same
budget on partial refinements.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.offline.whatif import (
    Configuration,
    WhatIfOptimizer,
    WorkloadStatement,
)
from repro.storage.catalog import ColumnRef


@dataclass(frozen=True, slots=True)
class Recommendation:
    """One recommended index with its expected economics."""

    ref: ColumnRef
    expected_benefit_s: float
    build_cost_s: float

    @property
    def benefit_per_build_second(self) -> float:
        if self.build_cost_s <= 0:
            # A free build is only infinitely attractive when it buys
            # something; a zero-benefit candidate must not outrank
            # genuinely beneficial ones in the greedy pick.
            return float("inf") if self.expected_benefit_s > 0 else 0.0
        return self.expected_benefit_s / self.build_cost_s


@dataclass(slots=True)
class AdvisorReport:
    """The advisor's output: what to build, in which order."""

    recommended: list[Recommendation]
    rejected: list[Recommendation]
    budget_s: float | None
    whatif_calls: int


class OfflineAdvisor:
    """Greedy benefit-per-cost index selection under a time budget."""

    def __init__(self, optimizer: WhatIfOptimizer) -> None:
        self.optimizer = optimizer

    def candidates(
        self, workload: list[WorkloadStatement]
    ) -> list[ColumnRef]:
        """Distinct columns referenced by the workload sample."""
        seen: dict[ColumnRef, None] = {}
        for statement in workload:
            seen.setdefault(statement.ref, None)
        return list(seen)

    def advise(
        self,
        workload: list[WorkloadStatement],
        budget_s: float | None = None,
        max_indexes: int | None = None,
    ) -> AdvisorReport:
        """Pick indexes greedily by benefit per build-second.

        Args:
            workload: representative statement sample with weights.
            budget_s: total build-time budget; ``None`` = unlimited.
            max_indexes: cap on the number of recommendations.

        Raises:
            ConfigError: if the budget or cap is negative.
        """
        if budget_s is not None and budget_s < 0:
            raise ConfigError(f"budget must be >= 0, got {budget_s}")
        if max_indexes is not None and max_indexes < 0:
            raise ConfigError(f"max_indexes must be >= 0: {max_indexes}")
        calls_before = self.optimizer.calls
        config = Configuration()
        remaining = (
            float("inf") if budget_s is None else float(budget_s)
        )
        pool = self.candidates(workload)
        recommended: list[Recommendation] = []
        rejected: list[Recommendation] = []
        while pool:
            scored: list[Recommendation] = []
            for ref in pool:
                benefit = self.optimizer.index_benefit(
                    workload, config, ref
                )
                cost = self.optimizer.build_cost(ref)
                scored.append(Recommendation(ref, benefit, cost))
            scored.sort(
                key=lambda r: r.benefit_per_build_second, reverse=True
            )
            best = scored[0]
            capped = (
                max_indexes is not None
                and len(recommended) >= max_indexes
            )
            if best.expected_benefit_s <= 0 or capped:
                rejected.extend(scored)
                break
            if best.build_cost_s > remaining:
                rejected.append(best)
                pool.remove(best.ref)
                continue
            recommended.append(best)
            config = config.with_index(best.ref)
            remaining -= best.build_cost_s
            pool.remove(best.ref)
        return AdvisorReport(
            recommended=recommended,
            rejected=rejected,
            budget_s=budget_s,
            whatif_calls=self.optimizer.calls - calls_before,
        )
