"""Verification harness: differential testing and invariant checking.

Every optimum :mod:`repro.core` computes has slower, independent
implementations here (:mod:`repro.verify.reference`: pure-Python DPs
and an explicit-graph shortest path), and the engine deliberately
separates estimation (:mod:`repro.sqlengine.whatif`) from execution.
This package turns that redundancy into an executable oracle with
these check families:

1. solver equivalence — all solver paths agree exactly (0 ulp);
2. constrained invariants — every k-aware solution satisfies the
   paper's constraints (monotone cost, budget, space bound);
3. cost service — batched estimation is bit-identical to scalar, and
   cache invalidation tracks the stats epoch;
4. ground truth — what-if estimates stay within per-access-path
   budgets of costs metered on the live engine;
5. plan identity — the what-if optimizer and the executor pick
   structurally identical physical-plan trees for every statement x
   configuration;
6. fault resilience — catalog atomicity, metric conservation, and
   convergence under injected faults (:mod:`repro.faults`, run via
   ``repro chaos``);
7. scale advisor — the compressed workload-summary formulation fills
   bit-identical cost matrices, and the reference LP bound sits
   below the lower convex envelope of the exact cost curve, which
   sits below the optimum, while the LP's rounded solution stays
   feasible;
9. bandit safety — the safety-gated online bandit tuner stays within
   its regression bound of stay-put under every adversarial chaos
   scenario, never decides on degraded evidence, and respects its
   what-if call budget (:mod:`repro.faults.scenarios`, run via
   ``repro verify --families banditsafety`` or
   ``repro chaos --scenario``).

Entry points: ``repro verify`` on the command line and
:func:`~repro.verify.runner.run_verification` from code. The pytest
fixtures that wrap these families live in the test tree
(``tests/verify/conftest.py``), so no runtime module imports pytest.
"""

from .checks import (DEFAULT_GROUND_TRUTH_BUDGETS,
                     check_constrained_invariants, check_cost_service,
                     check_ground_truth, check_lp_bounds,
                     check_plan_identity, check_solver_equivalence,
                     check_summary_formulation,
                     replay_ranking_failures,
                     solver_agreement_failures)
from .generators import (MatrixInstance, TraceInstance,
                         matrix_instances, random_matrix_instance,
                         random_trace_problem)
from .report import (CheckFailure, CheckResult, VerificationReport)
from .runner import (CORE_FAMILIES, run_bandit_safety, run_chaos,
                     run_verification)

__all__ = [
    "DEFAULT_GROUND_TRUTH_BUDGETS",
    "CheckFailure", "CheckResult", "MatrixInstance", "TraceInstance",
    "VerificationReport",
    "check_constrained_invariants", "check_cost_service",
    "check_ground_truth", "check_lp_bounds", "check_plan_identity",
    "check_solver_equivalence", "check_summary_formulation",
    "CORE_FAMILIES",
    "matrix_instances", "random_matrix_instance",
    "random_trace_problem", "replay_ranking_failures",
    "run_bandit_safety", "run_chaos", "run_verification",
    "solver_agreement_failures",
]
