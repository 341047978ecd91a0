"""Design robustness analysis — the paper's second open question.

"How to characterize scenarios or classes of workloads for which
constrained dynamic physical designs will be beneficial?" (Section 8).
This module gives the quantitative tool: evaluate a fixed design over
a family of workload variations and report its *regret* against each
variation's own optimum. Overfit designs show low regret on the trace
and high regret on variations; constrained designs trade a little
trace-regret for much flatter variation-regret — the Figure 3 effect,
generalized from two hand-made variants to arbitrary families.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..errors import DesignError
from ..workload.model import Workload
from ..workload.segmentation import segment_by_count
from .costmatrix import CostProvider, build_cost_matrices
from .design import DesignSequence
from .problem import ProblemInstance
from .sequence_graph import solve_unconstrained


@dataclass(frozen=True)
class VariantOutcome:
    """One design priced on one workload variant."""

    variant_name: str
    design_cost: float
    optimal_cost: float

    @property
    def regret(self) -> float:
        """Relative excess over the variant's own optimum (>= 0)."""
        if self.optimal_cost <= 0:
            return 0.0
        return self.design_cost / self.optimal_cost - 1.0


@dataclass
class RobustnessReport:
    """A design's behaviour across a variation family.

    Attributes:
        design_label: short description of the evaluated design.
        outcomes: per-variant costs and regrets.
    """

    design_label: str
    outcomes: List[VariantOutcome]

    @property
    def mean_regret(self) -> float:
        return float(np.mean([o.regret for o in self.outcomes]))

    @property
    def worst_regret(self) -> float:
        return float(max(o.regret for o in self.outcomes))


def evaluate_robustness(design: DesignSequence,
                        problem: ProblemInstance,
                        provider: CostProvider,
                        variations: Sequence[Workload],
                        block_size: int,
                        design_label: str = "design"
                        ) -> RobustnessReport:
    """Price ``design`` on every variation, against each variation's
    own unconstrained optimum (same matrices, same configuration space).

    Each variation must segment into the trace's block count so the
    design aligns block-for-block.
    """
    if len(design) != problem.n_segments:
        raise DesignError("design length != problem segments")
    outcomes: List[VariantOutcome] = []
    for i, variation in enumerate(variations):
        segments = segment_by_count(variation, block_size)
        if len(segments) != problem.n_segments:
            raise DesignError(
                f"variation {variation.name!r}: {len(segments)} blocks "
                f"!= {problem.n_segments}")
        variant_problem = ProblemInstance(
            segments=tuple(segments),
            configurations=problem.configurations,
            initial=problem.initial, final=problem.final)
        matrices = build_cost_matrices(variant_problem, provider)
        optimal = solve_unconstrained(matrices)
        outcomes.append(VariantOutcome(
            variant_name=variation.name or f"variant-{i}",
            design_cost=design.cost(matrices),
            optimal_cost=optimal.cost))
    return RobustnessReport(design_label=design_label,
                            outcomes=outcomes)


def compare_robustness(designs: Dict[str, DesignSequence],
                       problem: ProblemInstance,
                       provider: CostProvider,
                       variations: Sequence[Workload],
                       block_size: int
                       ) -> Dict[str, RobustnessReport]:
    """Robustness reports for several designs over one family."""
    return {label: evaluate_robustness(design, problem, provider,
                                       variations, block_size,
                                       design_label=label)
            for label, design in designs.items()}
