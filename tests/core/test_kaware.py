"""Unit tests for the k-aware constrained solver (the paper's core)."""

import numpy as np
import pytest

from repro.core.kaware import solve_constrained
from repro.core.sequence_graph import solve_unconstrained
from repro.errors import InfeasibleProblemError
from repro.verify.reference import reference_constrained

from .helpers import brute_force_best, random_matrices


class TestOptimality:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_matches_brute_force(self, seed, k):
        matrices = random_matrices(n_seg=4, n_cfg=3, seed=seed)
        result = solve_constrained(matrices, k)
        _, best = brute_force_best(matrices, k,
                                   count_initial_change=True)
        assert result.cost == pytest.approx(best)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_matches_brute_force_uncounted_initial(self, seed, k):
        matrices = random_matrices(n_seg=4, n_cfg=3, seed=seed)
        result = solve_constrained(matrices, k,
                                   count_initial_change=False)
        _, best = brute_force_best(matrices, k,
                                   count_initial_change=False)
        assert result.cost == pytest.approx(best)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("k", [1, 2])
    def test_with_final_constraint(self, seed, k):
        matrices = random_matrices(n_seg=4, n_cfg=3, seed=seed,
                                   final_index=0)
        result = solve_constrained(matrices, k)
        _, best = brute_force_best(matrices, k)
        assert result.cost == pytest.approx(best)

    @pytest.mark.parametrize("seed", range(8))
    def test_vectorized_equals_reference(self, seed):
        matrices = random_matrices(n_seg=6, n_cfg=4, seed=seed)
        for k in (0, 1, 3, 5):
            fast = solve_constrained(matrices, k)
            slow = reference_constrained(matrices, k)
            assert fast.cost == pytest.approx(slow.cost), f"k={k}"
            assert fast.change_count == slow.change_count


class TestConstraintSatisfaction:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("k", [0, 1, 2, 4])
    def test_change_budget_respected(self, seed, k):
        matrices = random_matrices(n_seg=8, n_cfg=4, seed=seed)
        result = solve_constrained(matrices, k)
        assert result.change_count <= k
        assert matrices.change_count(result.assignment) <= k

    def test_k0_stays_at_initial(self):
        matrices = random_matrices(5, 3, seed=1, initial_index=2)
        result = solve_constrained(matrices, 0)
        assert all(c == 2 for c in result.assignment)

    def test_k0_uncounted_initial_allows_one_move(self):
        matrices = random_matrices(5, 3, seed=1, initial_index=2)
        result = solve_constrained(matrices, 0,
                                   count_initial_change=False)
        # One configuration throughout, but not necessarily C0.
        assert len(set(result.assignment)) == 1

    def test_negative_k_raises(self):
        with pytest.raises(InfeasibleProblemError):
            solve_constrained(random_matrices(3, 2, seed=0), -1)


class TestRelationToUnconstrained:
    @pytest.mark.parametrize("seed", range(5))
    def test_large_k_recovers_unconstrained(self, seed):
        matrices = random_matrices(n_seg=6, n_cfg=3, seed=seed)
        unconstrained = solve_unconstrained(matrices)
        constrained = solve_constrained(matrices, k=6)
        assert constrained.cost == pytest.approx(unconstrained.cost)

    @pytest.mark.parametrize("seed", range(5))
    def test_cost_monotone_in_k(self, seed):
        matrices = random_matrices(n_seg=6, n_cfg=3, seed=seed)
        costs = [solve_constrained(matrices, k).cost
                 for k in range(7)]
        for tighter, looser in zip(costs, costs[1:]):
            assert looser <= tighter + 1e-9

    def test_layers_used_bounded_by_k(self):
        matrices = random_matrices(6, 3, seed=2)
        for k in range(4):
            result = solve_constrained(matrices, k)
            assert result.layers_used <= k

    @pytest.mark.parametrize("count_initial_change", [True, False])
    @pytest.mark.parametrize("final_index", [None, 1])
    @pytest.mark.parametrize("seed", range(3))
    def test_budget_beyond_the_segments_changes_nothing(
            self, seed, final_index, count_initial_change):
        """n segments allow at most n changes, so the solver builds no
        layers above that: a huge k is the k = n answer, to the bit,
        and costs no more memory (k = 10**6 used to allocate 10**6
        layers)."""
        n_seg = 5
        matrices = random_matrices(n_seg, 4, seed=seed,
                                   final_index=final_index,
                                   trans_scale=0.5)
        at_n = solve_constrained(matrices, n_seg, count_initial_change)
        for k in (n_seg + 1, 10 ** 6):
            assert solve_constrained(matrices, k,
                                     count_initial_change) == at_n


class TestCostAccounting:
    @pytest.mark.parametrize("seed", range(5))
    def test_reported_cost_matches_assignment(self, seed):
        matrices = random_matrices(n_seg=6, n_cfg=4, seed=seed,
                                   final_index=1)
        result = solve_constrained(matrices, 2)
        assert matrices.sequence_cost(result.assignment) == \
            pytest.approx(result.cost)

    def test_single_segment_k1(self):
        matrices = random_matrices(1, 3, seed=7)
        result = solve_constrained(matrices, 1)
        expected = min(matrices.trans_matrix[0, c] +
                       matrices.exec_matrix[0, c] for c in range(3))
        assert result.cost == pytest.approx(expected)


class TestParentTableDtype:
    def test_parent_table_is_int32(self):
        """parent_cfg is the solver's dominant allocation
        ((n_seg x layers x |C|)); int32 halves it and indices are
        bounded by |C| < 2**31."""
        import inspect

        from repro.core import kaware

        source = inspect.getsource(kaware.solve_constrained)
        assert "int32" in source and "int64" not in source

    @pytest.mark.parametrize("seed", range(8))
    def test_int32_parents_match_reference(self, seed):
        """The narrower parent table must not change any
        reconstruction: assignment, cost, and change count all agree
        with the pure-Python reference solver."""
        matrices = random_matrices(n_seg=6, n_cfg=5, seed=seed)
        for k in (0, 1, 2, 4):
            fast = solve_constrained(matrices, k)
            slow = reference_constrained(matrices, k)
            assert fast.assignment == slow.assignment, f"k={k}"
            assert fast.cost == pytest.approx(slow.cost), f"k={k}"
            assert fast.change_count == slow.change_count, f"k={k}"
