"""Families 3-5 on a live trace instance, plus negative tests proving
the checks can actually fail."""

import dataclasses

from repro.core.kaware import (constrained_invariant_violations,
                               solve_constrained)
from repro.sqlengine.index import Index
from repro.sqlengine.whatif import WhatIfOptimizer
from repro.verify.checks import (DEFAULT_GROUND_TRUTH_BUDGETS,
                                 check_cost_service,
                                 check_ground_truth,
                                 check_plan_identity,
                                 replay_ranking_failures,
                                 solver_agreement_failures)
from repro.verify.generators import random_trace_problem
from repro.verify.report import CheckResult


def test_cost_service_family_clean(quick_trace, assert_family_clean):
    result = assert_family_clean(check_cost_service, quick_trace)
    assert result.checks > 50


def test_ground_truth_family_clean(quick_trace, assert_family_clean):
    result = assert_family_clean(check_ground_truth, quick_trace)
    assert result.checks > 50
    # The check must leave the database in the empty design.
    assert quick_trace.db.current_configuration() == frozenset()


def test_ground_truth_covers_multiple_access_paths(quick_trace):
    """The deployed configurations must actually diversify the access
    paths; all-full-scans would make the seek budgets vacuous."""
    db = quick_trace.db
    kinds = set()
    for config in quick_trace.problem.configurations[:3]:
        db.apply_configuration(set(config))
        for segment in quick_trace.problem.segments:
            for statement in list(segment)[:3]:
                kinds.add(db.execute_metered(statement.ast).access_kind)
    db.apply_configuration(set())
    assert "full_scan" in kinds
    assert kinds & {"index_seek", "index_only_scan"}


def test_ground_truth_budget_violation_is_reported(quick_trace):
    """Impossible budgets must produce failures — proves the relative
    error is actually being computed against live execution."""
    result = CheckResult("groundtruth", "negative")
    check_ground_truth(
        quick_trace, result,
        budgets={kind: -1.0 for kind in DEFAULT_GROUND_TRUTH_BUDGETS},
        statements_per_segment=1)
    assert not result.ok
    assert quick_trace.db.current_configuration() == frozenset()


def test_ground_truth_select_page_write_is_reported(quick_trace,
                                                   monkeypatch):
    """A seek that writes a page must fail family 4: a SELECT writes
    no page."""
    descent = Index.charge_descent

    def writing_descent(self):
        descent(self)
        self.buffer_manager.write_page((self.object_id, 0))

    monkeypatch.setattr(Index, "charge_descent", writing_descent)
    result = CheckResult("groundtruth", "negative")
    check_ground_truth(quick_trace, result, statements_per_segment=1)
    assert result.failures
    assert all("a SELECT wrote 1 pages" in failure.message
               for failure in result.failures)
    assert quick_trace.db.current_configuration() == frozenset()


def test_cost_service_check_detects_poisoned_cache(quick_trace):
    """Corrupting one cached template cost must break bit-identity."""
    trace = random_trace_problem(seed=9, nrows=2_000, n_blocks=2,
                                 block_size=10)
    service = trace.service
    service.exec_matrix(trace.problem.segments,
                        trace.problem.configurations)
    row = next(iter(service._template_units.values()))
    row[next(iter(row))] += 0.5
    result = CheckResult("costservice", "negative")
    check_cost_service(trace, result)
    assert not result.ok


def test_experiment_verify_pass_flags_bad_solutions(quick_trace):
    """The bench hook: honest matrices pass, a tampered result fails
    the invariant hook it shares with the experiments."""
    from repro.core.costmatrix import build_cost_matrices
    matrices = build_cost_matrices(quick_trace.problem,
                                   quick_trace.service)
    assert solver_agreement_failures(matrices, k=2,
                                     count_initial_change=False) == []
    solved = solve_constrained(matrices, 1, False)
    tampered = type(solved)(
        assignment=solved.assignment, cost=solved.cost + 1.0,
        change_count=solved.change_count,
        layers_used=solved.layers_used)
    violations = constrained_invariant_violations(
        matrices, tampered, 1, count_initial_change=False)
    assert any("canonical" in v for v in violations)


def test_plan_identity_family_clean(quick_trace, assert_family_clean):
    result = assert_family_clean(check_plan_identity, quick_trace)
    assert result.checks > 50
    # The check must leave the database in the empty design.
    assert quick_trace.db.current_configuration() == frozenset()


def test_plan_identity_50_seed_corpus():
    """Acceptance corpus: the what-if optimizer and the executor pick
    structurally identical plan trees on 50 independently seeded trace
    problems (small instances — coverage over depth)."""
    for seed in range(50):
        trace = random_trace_problem(seed=seed, nrows=400, n_blocks=2,
                                     block_size=8)
        result = CheckResult("planidentity", "corpus")
        check_plan_identity(trace, result)
        assert result.ok, (
            f"seed {seed}:\n" + "\n".join(
                failure.format() for failure in result.failures))
        assert result.checks > 0


def test_plan_identity_detects_missing_plan(monkeypatch):
    """Stripping the plan off the what-if estimate must fail the
    family — proves the check inspects the literal plan objects."""
    trace = random_trace_problem(seed=4, nrows=800, n_blocks=2,
                                 block_size=8)
    original = WhatIfOptimizer.estimate_statement

    def tampered(self, statement, structures):
        estimate = original(self, statement, structures)
        return dataclasses.replace(estimate, plan=None)

    monkeypatch.setattr(WhatIfOptimizer, "estimate_statement", tampered)
    result = CheckResult("planidentity", "negative")
    check_plan_identity(trace, result)
    assert not result.ok
    assert any("missing plan tree" in failure.message
               for failure in result.failures)


def test_replay_ranking_consistency_helper():
    metered = {("W1", "a"): 100.0, ("W1", "b"): 120.0,
               ("W2", "a"): 90.0}
    agreeing = {("W1", "a"): 200.0, ("W1", "b"): 260.0,
                ("W2", "a"): 150.0}
    assert replay_ranking_failures(metered, agreeing) == []
    flipped = dict(agreeing)
    flipped[("W1", "b")] = 150.0
    failures = replay_ranking_failures(metered, flipped)
    assert failures and "ranking flip" in failures[0]
    # Near-ties are tolerated in either order.
    near_tie = dict(agreeing)
    near_tie[("W1", "b")] = 199.0
    assert replay_ranking_failures(metered, near_tie) == []
    # Mismatched key sets are a failure, not a crash.
    assert replay_ranking_failures(metered, {("W1", "a"): 1.0})
