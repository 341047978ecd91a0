"""Unit tests for the LP-relaxation + rounding reference solver, the\n``lp`` advisor, and the convex envelope that judges the LP bound."""

import pytest

from repro.core import (ConstrainedGraphAdvisor, LPAdvisor,
                        UnconstrainedAdvisor, solve_lp_rounding,
                        summarize_problem)
from repro.core.kaware import solve_constrained
from repro.errors import InfeasibleProblemError
from repro.verify.reference import lower_convex_envelope

from .helpers import brute_force_best, random_matrices


def _changes(matrices, assignment, count_initial_change):
    changes = 0
    previous = matrices.initial_index if count_initial_change \
        else assignment[0]
    for cfg in assignment:
        if cfg != previous:
            changes += 1
        previous = cfg
    return changes


class TestSolveLPRounding:
    def test_negative_k_raises(self):
        matrices = random_matrices(4, 3, seed=0)
        with pytest.raises(InfeasibleProblemError):
            solve_lp_rounding(matrices, -1)

    def test_unconstrained_budget_is_exact(self):
        matrices = random_matrices(5, 4, seed=1)
        result = solve_lp_rounding(matrices, k=5)
        _, optimum = brute_force_best(matrices, k=None)
        assert result.cost == optimum
        assert result.gap == 0.0
        assert result.method == "unconstrained"

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("count_initial", [True, False])
    def test_feasible_and_bounded(self, seed, k, count_initial):
        matrices = random_matrices(6, 4, seed=seed, trans_scale=2.0)
        lp = solve_lp_rounding(matrices, k,
                               count_initial_change=count_initial)
        dp = solve_constrained(matrices, k,
                               count_initial_change=count_initial)
        assert _changes(matrices, lp.assignment, count_initial) <= k
        assert lp.change_count == _changes(matrices, lp.assignment,
                                           count_initial)
        epsilon = 1e-9 * max(1.0, abs(dp.cost))
        assert lp.lower_bound <= dp.cost + epsilon
        assert lp.cost >= dp.cost - epsilon
        assert lp.cost - dp.cost <= lp.gap + epsilon
        assert lp.gap == lp.cost - lp.lower_bound

    def test_cost_matches_assignment(self):
        matrices = random_matrices(6, 4, seed=9)
        lp = solve_lp_rounding(matrices, k=1)
        assert lp.cost == matrices.sequence_cost(lp.assignment)

    def test_pinned_final_respected(self):
        matrices = random_matrices(5, 4, seed=3, final_index=2)
        lp = solve_lp_rounding(matrices, k=1)
        assert _changes(matrices, lp.assignment, True) <= 1
        assert lp.cost == matrices.sequence_cost(lp.assignment)

    def test_k_zero_stays_put(self):
        matrices = random_matrices(4, 3, seed=5)
        lp = solve_lp_rounding(matrices, k=0)
        assert lp.change_count == 0
        assert len(set(lp.assignment)) == 1
        assert lp.assignment[0] == matrices.initial_index

    def test_method_labels(self):
        matrices = random_matrices(6, 4, seed=2, trans_scale=0.1)
        tight = solve_lp_rounding(matrices, k=6)
        assert tight.method == "unconstrained"
        constrained = solve_lp_rounding(matrices, k=1)
        assert constrained.method in ("unconstrained", "dual",
                                      "dual+merge")
        assert constrained.iterations >= 1


class TestLPAdvisor:
    """``lp`` runs the exact solve: the k-aware optimum, zero gap."""

    @pytest.mark.parametrize("count_initial", [True, False])
    @pytest.mark.parametrize("k", range(5))
    def test_cost_equals_kaware(self, small_problem, small_provider,
                                small_matrices, k, count_initial):
        lp = LPAdvisor(k, count_initial).recommend(
            small_problem, small_provider, small_matrices)
        dp = ConstrainedGraphAdvisor(k, count_initial).recommend(
            small_problem, small_provider, small_matrices)
        assert lp.cost == dp.cost
        assert lp.change_count <= k
        assert lp.stats["gap"] == 0.0
        assert lp.stats["lower_bound"] == lp.cost

    def test_recommendation_carries_interval(self, small_problem,
                                             small_provider,
                                             small_matrices):
        """The interval is exact, and ``method`` names the solve."""
        free = UnconstrainedAdvisor().recommend(
            small_problem, small_provider, small_matrices)
        assert free.change_count > 0
        slack, tight = (
            LPAdvisor(k).recommend(small_problem, small_provider,
                                   small_matrices)
            for k in (free.change_count, free.change_count - 1))
        assert slack.stats["method"] == "unconstrained"
        assert slack.cost == free.cost
        assert tight.stats["method"] == "kaware"
        assert tight.change_count <= free.change_count - 1
        for recommendation in (slack, tight):
            assert recommendation.stats["lower_bound"] == \
                recommendation.cost
            assert recommendation.stats["gap"] == 0.0

    def test_summary_problem_same_interval(self, small_problem,
                                           small_provider):
        raw = LPAdvisor(2).recommend(small_problem, small_provider)
        compressed = LPAdvisor(2).recommend(
            summarize_problem(small_problem), small_provider)
        assert compressed.cost == raw.cost
        assert compressed.stats["lower_bound"] == \
            raw.stats["lower_bound"]


class TestLowerConvexEnvelope:
    #: Non-convex: f(1) sits above the chord 0 -> 2, f(3) on the
    #: chord 2 -> 4.
    F = [10.0, 9.0, 4.0, 3.5, 3.0, 3.0]

    def test_hand_made_curve(self):
        assert lower_convex_envelope(self.F) == \
            [10.0, 7.0, 4.0, 3.5, 3.0, 3.0]

    def test_is_the_lagrangian_dual(self):
        """At every k the envelope is the best multiplier's bound;
        the hull's slopes (3, 0.5, 0) are the candidate multipliers."""
        envelope = lower_convex_envelope(self.F)
        for k in range(len(self.F)):
            dual = max(min(f + lam * (j - k)
                           for j, f in enumerate(self.F))
                       for lam in (3.0, 0.5, 0.0))
            assert envelope[k] == dual

    def test_convex_curve_is_its_own_envelope(self):
        assert lower_convex_envelope([8.0, 4.0, 2.0, 1.0]) == \
            [8.0, 4.0, 2.0, 1.0]
        assert lower_convex_envelope([5.0]) == [5.0]
