"""Experiment harness reproducing every table and figure of the paper."""

from .evaluate import (ReplayReport, SegmentReplay, estimate_replay,
                       replay_design)
from .experiments import (COUNT_INITIAL_CHANGE, Figure3Result,
                          Figure4Result, GranularityAblationResult,
                          GreedySeqAblationResult,
                          HybridAblationResult, PaperSetup,
                          RankingAblationResult,
                          SpaceBoundAblationResult,
                          StructureAblationResult, Table1Result,
                          Table2Result, build_paper_setup,
                          paper_candidate_indexes, run_ablation_greedy_seq,
                          run_ablation_hybrid, run_ablation_ranking,
                          run_ablation_granularity,
                          run_ablation_space_bound,
                          run_ablation_structures, run_figure3,
                          run_figure4, run_table1, run_table2)
from .extensions import (KTuningResult, OnlineComparisonResult,
                         RobustnessResult, run_extension_ktuning,
                         run_extension_online,
                         run_extension_robustness)
from .reporting import format_bars, format_series, format_table

__all__ = [
    "ReplayReport", "SegmentReplay", "estimate_replay", "replay_design",
    "COUNT_INITIAL_CHANGE", "Figure3Result", "Figure4Result",
    "GreedySeqAblationResult", "HybridAblationResult", "PaperSetup",
    "RankingAblationResult", "SpaceBoundAblationResult", "Table1Result",
    "Table2Result", "build_paper_setup", "paper_candidate_indexes",
    "GranularityAblationResult", "StructureAblationResult",
    "run_ablation_granularity",
    "run_ablation_greedy_seq", "run_ablation_hybrid",
    "run_ablation_ranking", "run_ablation_space_bound",
    "run_ablation_structures", "run_figure3",
    "run_figure4", "run_table1", "run_table2",
    "KTuningResult", "OnlineComparisonResult", "RobustnessResult",
    "run_extension_ktuning", "run_extension_online",
    "run_extension_robustness",
    "format_bars", "format_series", "format_table",
]
