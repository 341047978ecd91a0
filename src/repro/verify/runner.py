"""Orchestration: one call runs every check family.

:func:`run_verification` drives families 1-5, 7 and 8 over a batch of
randomized matrix instances and one or more live trace instances,
returning a :class:`~repro.verify.report.VerificationReport`
(family 6, fault resilience, runs separately via :func:`run_chaos`).
The ``repro verify`` CLI subcommand and the CI quick gate are thin
wrappers around it.

``quick`` shrinks the *live-engine* work (fewer rows, fewer blocks,
one trace instead of two); it never reduces the randomized solver
instances below the requested count — the solver-equivalence family
is cheap and is the one that must cover >= 50 instances in CI.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from ..errors import DesignError
from .checks import (check_constrained_invariants, check_cost_service,
                     check_deployment, check_ground_truth,
                     check_lp_bounds, check_plan_identity,
                     check_solver_equivalence,
                     check_summary_formulation)
from .generators import matrix_instances, random_trace_problem
from .report import CheckResult, VerificationReport

#: Families 1-5, 7 and 8 — the ones :func:`run_verification` owns.
#: Family 6 (``faultresilience``) runs via :func:`run_chaos`; family
#: 9 (``banditsafety``) via :func:`run_bandit_safety`.
CORE_FAMILIES = ("solvers", "invariants", "costservice",
                 "groundtruth", "planidentity", "scaleadvisor",
                 "deployment")


def run_verification(seed: int = 0, instances: int = 50,
                     quick: bool = False,
                     nrows: Optional[int] = None,
                     traces: Optional[int] = None,
                     families: Optional[Sequence[str]] = None
                     ) -> VerificationReport:
    """Run check families 1-5, 7 and 8.

    Args:
        seed: base seed; instance i uses ``seed + i``.
        instances: randomized matrix instances for families 1-2.
        quick: shrink the live-engine families (CI gate scale).
        nrows: table rows per trace instance (default 4000 quick,
            20000 full).
        traces: live trace instances (default 1 quick, 2 full).
        families: subset of :data:`CORE_FAMILIES` to run (all when
            omitted); instances and traces a selection never touches
            are skipped entirely.
    """
    if families is None:
        selected = set(CORE_FAMILIES)
    else:
        selected = set(families)
        unknown = selected.difference(CORE_FAMILIES)
        if unknown:
            raise DesignError(
                f"unknown verify families: {sorted(unknown)}; "
                f"core families are {', '.join(CORE_FAMILIES)}")
    start = time.perf_counter()
    if nrows is None:
        nrows = 4_000 if quick else 20_000
    if traces is None:
        traces = 1 if quick else 2
    n_blocks = 4 if quick else 6
    block_size = 25 if quick else 40

    solvers = CheckResult(
        "solvers", "vectorized DP == reference DP == explicit graph "
                   "shortest path, exactly")
    invariants = CheckResult(
        "invariants", "cost(k) monotone, cost(k>=l) == unconstrained, "
                      "changes <= k, SIZE(C_i) <= b")
    costservice = CheckResult(
        "costservice", "batched matrices bit-identical to scalar "
                       "estimation; epoch invalidation works")
    groundtruth = CheckResult(
        "groundtruth", "what-if estimates within budget of executed "
                       "metered cost; IoMetrics consistent")
    planidentity = CheckResult(
        "planidentity", "what-if plan trees structurally equal to "
                        "executor plan trees, per statement x config")
    scaleadvisor = CheckResult(
        "scaleadvisor", "summary formulation bit-identical to raw "
                        "matrices; reference LP feasible, LP bound <= "
                        "convex envelope <= DP optimum <= LP cost")
    deployment = CheckResult(
        "deployment", "level-NONE structures bitwise uncompressed; "
                      "signatures never conflate levels; schedules "
                      "feasible, never worse than unscheduled, and "
                      "land exactly on the target")

    matrix_checks = (("solvers", check_solver_equivalence, solvers),
                     ("invariants", check_constrained_invariants,
                      invariants),
                     ("scaleadvisor", check_lp_bounds, scaleadvisor))
    trace_checks = (("costservice", check_cost_service, costservice),
                    ("groundtruth", check_ground_truth, groundtruth),
                    ("planidentity", check_plan_identity,
                     planidentity),
                    ("scaleadvisor", check_summary_formulation,
                     scaleadvisor),
                    ("deployment", check_deployment, deployment))

    if any(family in selected for family, _, _ in matrix_checks):
        for instance in matrix_instances(seed, instances):
            for family, check, result in matrix_checks:
                if family in selected:
                    check(instance, result)

    if any(family in selected for family, _, _ in trace_checks):
        for t in range(traces):
            trace = random_trace_problem(seed + t, nrows=nrows,
                                         n_blocks=n_blocks,
                                         block_size=block_size)
            for family, check, result in trace_checks:
                if family in selected:
                    check(trace, result)

    report = VerificationReport(
        results=[result for result in
                 (solvers, invariants, costservice, groundtruth,
                  planidentity, scaleadvisor, deployment)
                 if result.family in selected])
    report.seconds = time.perf_counter() - start
    return report


def run_chaos(seed: int = 0, plans: int = 3,
              quick: bool = False) -> VerificationReport:
    """Run check family 6 (``faultresilience``).

    Replays fixtures under injected fault plans: an exhaustive
    atomicity sweep over every build step, engine metric-conservation
    and row-convergence under ``plans`` randomized transient-only
    plans, advisor bit-identity under transient estimate faults, and
    graceful degradation under permanent estimate faults. Fully
    deterministic in ``seed``.

    Args:
        seed: base seed; randomized plan i uses ``seed + i``.
        plans: randomized transient-only fault plans for the engine
            convergence check.
        quick: stride the atomicity sweep and shrink the fixtures
            (CI gate scale).
    """
    # Imported lazily: chaos pulls in the whole engine and the
    # advisors, which families 1-5 callers should not pay for.
    from ..faults import chaos
    from ..faults.injector import random_fault_plan

    start = time.perf_counter()
    resilience = CheckResult("faultresilience",
                             chaos.FAMILY_DESCRIPTION)
    chaos.check_atomic_transitions(resilience, seed, quick=quick)
    for p in range(plans):
        chaos.check_engine_convergence(
            resilience, seed + p, random_fault_plan(seed + p),
            quick=quick)
    chaos.check_recommendation_convergence(resilience, seed,
                                           quick=quick)
    chaos.check_degradation(resilience, seed, quick=quick)
    report = VerificationReport(results=[resilience])
    report.seconds = time.perf_counter() - start
    return report


def run_bandit_safety(seed: int = 0, seeds: int = 2,
                      quick: bool = False) -> VerificationReport:
    """Run check family 9 (``banditsafety``).

    Sweeps every adversarial scenario in
    :data:`repro.faults.scenarios.SCENARIOS` through the safety-gated
    bandit tuner and audits the run on a clean (injector-free) twin:
    realized cost within the regression bound of stay-put at every
    observation prefix, no decision from degraded evidence, the
    what-if call budget respected, and injector-off determinism per
    seed. Fully deterministic in ``seed``.

    Args:
        seed: base seed; sweep seed i uses ``seed + i``.
        seeds: seeds swept per scenario.
        quick: run the scenarios' CI-gate layouts.
    """
    # Imported lazily, like chaos: the scenario library pulls in the
    # live engine and the bandit stack.
    from ..faults import scenarios

    start = time.perf_counter()
    banditsafety = CheckResult("banditsafety",
                               scenarios.FAMILY_DESCRIPTION)
    scenarios.check_bandit_safety(banditsafety, seed, seeds=seeds,
                                  quick=quick)
    report = VerificationReport(results=[banditsafety])
    report.seconds = time.perf_counter() - start
    return report
