"""Extension experiments: the paper's open questions, measured.

These go beyond Section 6: automatic k selection (open question 1),
robustness characterization (open question 2), and a head-to-head with
an online tuner (the related-work alternative of Sections 1/7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.advisor import (ConstrainedGraphAdvisor,
                            UnconstrainedAdvisor)
from ..core.bandit import BanditTuner, ReactiveRule, default_arms
from ..core.costmatrix import build_cost_matrices
from ..core.ktuning import (KSweepResult, ValidatedKResult, knee_k,
                            sweep_k, validated_k)
from ..core.robustness import RobustnessReport, compare_robustness
from ..workload.perturb import jitter_blocks, resample_values
from .experiments import COUNT_INITIAL_CHANGE, PaperSetup
from .reporting import format_series, format_table


# ----------------------------------------------------------------------
# Extension 1 — choosing k
# ----------------------------------------------------------------------

@dataclass
class KTuningResult:
    """Automatic k selection on W1."""

    sweep: KSweepResult
    knee: int
    validated: ValidatedKResult

    def format(self) -> str:
        series = {"optimal cost": [f"{c:.0f}"
                                   for c in self.sweep.costs]}
        curve = format_series("k", list(self.sweep.ks), series,
                              title="Extension 1: cost curve on W1")
        lines = [curve, "",
                 f"knee of the curve:      k = {self.knee}",
                 f"validated against "
                 f"{len(self.validated.ks)} budgets on jittered "
                 f"variants: k = {self.validated.best_k}"]
        return "\n".join(lines)


def run_extension_ktuning(setup: PaperSetup,
                          n_variants: int = 4) -> KTuningResult:
    """Sweep k on W1, find the knee, and validate against jittered
    variants of the trace."""
    problem = setup.problem_for("W1")
    matrices = build_cost_matrices(problem, setup.provider)
    sweep = sweep_k(matrices, count_initial_change=
                    COUNT_INITIAL_CHANGE)
    knee = knee_k(sweep)
    trace = setup.workloads["W1"]
    variations = [jitter_blocks(trace, setup.block_size,
                                seed=1000 + i, max_displacement=3,
                                swap_fraction=0.9)
                  for i in range(n_variants)]
    candidate_ks = sorted({0, 1, 2, 4,
                           max(2, sweep.unconstrained_changes // 2),
                           sweep.unconstrained_changes})
    validated = validated_k(problem, setup.provider, variations,
                            setup.block_size, ks=candidate_ks,
                            count_initial_change=COUNT_INITIAL_CHANGE)
    return KTuningResult(sweep=sweep, knee=knee, validated=validated)


# ----------------------------------------------------------------------
# Extension 2 — robustness characterization
# ----------------------------------------------------------------------

@dataclass
class RobustnessResult:
    """Constrained vs unconstrained robustness across two variation
    families (value resampling vs minor-shift jitter)."""

    by_family: Dict[str, Dict[str, RobustnessReport]]

    def format(self) -> str:
        rows = []
        for family, reports in self.by_family.items():
            for label, report in reports.items():
                rows.append([family, label,
                             f"{report.mean_regret:.1%}",
                             f"{report.worst_regret:.1%}"])
        return format_table(
            ["variation family", "design", "mean regret",
             "worst regret"], rows,
            title="Extension 2: design robustness across variation "
                  "families")


def run_extension_robustness(setup: PaperSetup,
                             n_variants: int = 3) -> RobustnessResult:
    """Compare the W1 designs' regret over two variation families."""
    problem = setup.problem_for("W1")
    matrices = build_cost_matrices(problem, setup.provider)
    unconstrained = UnconstrainedAdvisor().recommend(
        problem, setup.provider, matrices)
    constrained = ConstrainedGraphAdvisor(
        2, count_initial_change=COUNT_INITIAL_CHANGE).recommend(
        problem, setup.provider, matrices)
    designs = {"unconstrained": unconstrained.design,
               "constrained k=2": constrained.design}
    trace = setup.workloads["W1"]
    families = {
        "fresh constants": [
            resample_values(trace, seed=2000 + i)
            for i in range(n_variants)],
        "jittered minors": [
            jitter_blocks(trace, setup.block_size, seed=3000 + i,
                          max_displacement=3, swap_fraction=0.9)
            for i in range(n_variants)],
    }
    by_family = {
        family: compare_robustness(designs, problem, setup.provider,
                                   variants, setup.block_size)
        for family, variants in families.items()}
    return RobustnessResult(by_family=by_family)


# ----------------------------------------------------------------------
# Extension 3 — offline (with a trace) vs online (reactive)
# ----------------------------------------------------------------------

@dataclass
class OnlineComparisonResult:
    """Costs of online vs offline designs on the W1 trace and a
    jittered repeat of it."""

    rows: List[Tuple[str, float, int]]  # (label, cost, changes)

    def format(self) -> str:
        rows = [[label, f"{cost:.0f}", changes]
                for label, cost, changes in self.rows]
        return format_table(
            ["technique", "cost on trace", "design changes"], rows,
            title="Extension 3: offline (trace in advance) vs online "
                  "(reactive) tuning on W1")

    def cost_of(self, label: str) -> float:
        for row_label, cost, _ in self.rows:
            if row_label == label:
                return cost
        raise KeyError(label)


def run_extension_online(setup: PaperSetup,
                         decay: float = 0.95,
                         build_factor: float = 2.0,
                         cooldown: Optional[int] = None
                         ) -> OnlineComparisonResult:
    """Run the online tuner over W1 and compare with the offline
    advisors on total (EXEC + TRANS) cost."""
    problem = setup.problem_for("W1")
    matrices = build_cost_matrices(problem, setup.provider)
    unconstrained = UnconstrainedAdvisor().recommend(
        problem, setup.provider, matrices)
    constrained = ConstrainedGraphAdvisor(
        2, count_initial_change=COUNT_INITIAL_CHANGE).recommend(
        problem, setup.provider, matrices)
    if cooldown is None:
        cooldown = setup.block_size // 2
    tuner = BanditTuner(default_arms(setup.candidates), setup.provider,
                        gate=ReactiveRule(build_factor, cooldown),
                        decay=decay, observe_every=1)
    online = tuner.run(list(setup.workloads["W1"]))
    rows = [
        ("offline unconstrained", unconstrained.cost,
         unconstrained.change_count),
        ("offline constrained k=2", constrained.cost,
         constrained.change_count),
        ("online tuner", online.total_cost, online.change_count),
    ]
    return OnlineComparisonResult(rows=rows)
