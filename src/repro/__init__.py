"""repro — Constrained Dynamic Physical Database Design.

A full reproduction of Voigt, Salem, Lehner (ICDE 2008 Workshops):
an embedded SQL engine with a what-if optimizer as the substrate, the
paper's constrained dynamic design algorithms on top, and a benchmark
harness regenerating every table and figure of the evaluation.

Quickstart::

    from repro import (Database, IndexDef, make_paper_workload,
                       segment_by_count, single_index_configurations,
                       ProblemInstance, WhatIfCostProvider,
                       ConstrainedGraphAdvisor, EMPTY_CONFIGURATION)

See ``examples/quickstart.py`` for the end-to-end flow.
"""

from .core import (Advisor, Configuration, ConstrainedGraphAdvisor,
                   CostEstimationStats, CostMatrices, CostService,
                   DesignSequence, EMPTY_CONFIGURATION,
                   GreedySeqAdvisor, HybridAdvisor, MatrixCostProvider,
                   MergingAdvisor, ProblemInstance, RankingAdvisor,
                   Recommendation, StaticAdvisor, UnconstrainedAdvisor,
                   WhatIfCostProvider, build_cost_matrices,
                   enumerate_configurations, merge_to_k,
                   single_index_configurations, solve_by_ranking,
                   solve_constrained, solve_hybrid, solve_unconstrained)
from .errors import (DesignError, EngineError, InfeasibleProblemError,
                     RankingExhaustedError, ReproError, SqlError,
                     WorkloadError)
from .sqlengine import (CostParams, Database, IndexDef, QueryResult,
                        TableStats, ViewDef, WhatIfOptimizer)
from .workload import (PointQueryGenerator, QueryMix, Segment, Statement,
                       Workload, load_trace, make_paper_workload,
                       paper_generator, save_trace, segment_by_count)

__version__ = "1.0.0"

__all__ = [
    "Advisor", "Configuration", "ConstrainedGraphAdvisor",
    "CostEstimationStats", "CostMatrices", "CostService",
    "DesignSequence", "EMPTY_CONFIGURATION",
    "GreedySeqAdvisor", "HybridAdvisor", "MatrixCostProvider",
    "MergingAdvisor", "ProblemInstance", "RankingAdvisor",
    "Recommendation", "StaticAdvisor", "UnconstrainedAdvisor",
    "WhatIfCostProvider", "build_cost_matrices",
    "enumerate_configurations", "merge_to_k",
    "single_index_configurations", "solve_by_ranking",
    "solve_constrained", "solve_hybrid", "solve_unconstrained",
    "DesignError", "EngineError", "InfeasibleProblemError",
    "RankingExhaustedError", "ReproError", "SqlError", "WorkloadError",
    "CostParams", "Database", "IndexDef", "QueryResult", "TableStats",
    "ViewDef", "WhatIfOptimizer",
    "PointQueryGenerator", "QueryMix", "Segment", "Statement",
    "Workload", "load_trace", "make_paper_workload", "paper_generator",
    "save_trace", "segment_by_count",
    "__version__",
]
