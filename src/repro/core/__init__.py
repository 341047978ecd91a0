"""Constrained dynamic physical design — the paper's contribution.

Public surface: configurations and problem instances, cost providers
and matrices, the solvers (unconstrained sequence graph, optimal
k-aware graph, GREEDY-SEQ reduction, sequential merging, path ranking,
hybrid), and the advisor facade that wraps them uniformly.
"""

from .advisor import (Advisor, ConstrainedGraphAdvisor, GreedySeqAdvisor,
                      HybridAdvisor, LPAdvisor, MergingAdvisor,
                      RankingAdvisor, Recommendation, StaticAdvisor,
                      UnconstrainedAdvisor)
from .costmatrix import (CostMatrices, CostProvider, MatrixCostProvider,
                         WhatIfCostProvider, build_cost_matrices,
                         supports_batching)
from .bandit import (BanditDecision, BanditResult, BanditTuner,
                     GateConfig, ReactiveRule, SafetyStats,
                     default_arms)
from .costservice import CostEstimationStats, CostService
from .design import DesignRun, DesignSequence, design_from_indices
from .greedy_seq import (GreedyCandidates, greedy_seq_candidates,
                         reduce_problem)
from .hybrid import HybridResult, solve_hybrid
from .kaware import ConstrainedResult, solve_constrained
from .ktuning import (KSweepResult, ValidatedKResult, knee_k, sweep_k,
                      validated_k)
from .lp_advisor import LPResult, solve_lp_rounding
from .merging import MergeStep, MergingResult, merge_to_k
from .problem import (ProblemInstance, enumerate_configurations,
                      problem_from_summary, summarize_problem)
from .robustness import (RobustnessReport, VariantOutcome,
                         compare_robustness, evaluate_robustness)
from .ranking import RankingResult, solve_by_ranking
from .sequence_graph import (SequenceGraph, ShortestPathResult,
                             solve_unconstrained)
from .structures import (Configuration, EMPTY_CONFIGURATION,
                         single_index_configurations)

__all__ = [
    "Advisor", "ConstrainedGraphAdvisor", "GreedySeqAdvisor",
    "HybridAdvisor", "LPAdvisor", "MergingAdvisor", "RankingAdvisor",
    "Recommendation", "StaticAdvisor", "UnconstrainedAdvisor",
    "BanditDecision", "BanditResult", "BanditTuner", "GateConfig",
    "ReactiveRule", "SafetyStats", "default_arms",
    "CostEstimationStats", "CostMatrices", "CostProvider",
    "CostService", "MatrixCostProvider",
    "WhatIfCostProvider", "build_cost_matrices", "supports_batching",
    "DesignRun", "DesignSequence", "design_from_indices",
    "GreedyCandidates", "greedy_seq_candidates", "reduce_problem",
    "HybridResult", "solve_hybrid",
    "ConstrainedResult", "solve_constrained",
    "KSweepResult", "ValidatedKResult", "knee_k", "sweep_k",
    "validated_k",
    "LPResult", "solve_lp_rounding",
    "MergeStep", "MergingResult", "merge_to_k",
    "ProblemInstance", "enumerate_configurations",
    "problem_from_summary", "summarize_problem",
    "RobustnessReport", "VariantOutcome", "compare_robustness",
    "evaluate_robustness",
    "RankingResult", "solve_by_ranking",
    "SequenceGraph", "ShortestPathResult", "solve_unconstrained",
    "Configuration", "EMPTY_CONFIGURATION",
    "single_index_configurations",
]
