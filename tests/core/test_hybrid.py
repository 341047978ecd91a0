"""Unit tests for the hybrid solver."""

import dataclasses

import numpy as np
import pytest

from repro.core.hybrid import solve_hybrid
from repro.core.kaware import solve_constrained
from repro.core.sequence_graph import solve_unconstrained
from repro.errors import InfeasibleProblemError

from .helpers import random_matrices


def _favouring(seed, wanted):
    """10 x 4 random matrices whose EXEC makes segment i strongly
    prefer configuration ``wanted(i)`` (every other cell +100)."""
    matrices = random_matrices(10, 4, seed=seed)
    penalty = np.full(matrices.exec_matrix.shape, 100.0)
    for i in range(matrices.n_segments):
        penalty[i, wanted(i)] = 0.0
    return dataclasses.replace(
        matrices, exec_matrix=matrices.exec_matrix + penalty)


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_budget_respected(self, seed, k):
        matrices = random_matrices(10, 4, seed=seed)
        result = solve_hybrid(matrices, k)
        assert result.change_count <= k
        assert matrices.sequence_cost(result.assignment) == \
            pytest.approx(result.cost)

    @pytest.mark.parametrize("seed", range(4))
    def test_kaware_branch_is_optimal(self, seed):
        # A switch at every segment (l = 10): merging's 9 steps over
        # 10 runs estimate 360 ops, the 2-layer graph 320.
        matrices = _favouring(seed, lambda i: 1 + i % 2)
        result = solve_hybrid(matrices, 1)
        assert result.method == "kaware"
        assert result.estimated_graph_ops < result.estimated_merge_ops
        assert result.cost == pytest.approx(
            solve_constrained(matrices, 1).cost)

    @pytest.mark.parametrize("seed", range(4))
    def test_merging_branch_is_feasible(self, seed):
        # One phase shift (l = 2): one merge step over 2 runs.
        matrices = _favouring(seed, lambda i: 1 if i < 5 else 2)
        result = solve_hybrid(matrices, 1)
        assert result.method == "merging"
        assert result.estimated_merge_ops < result.estimated_graph_ops
        assert result.change_count <= 1
        assert result.cost >= solve_constrained(matrices, 1).cost - 1e-9

    def test_unconstrained_shortcut(self):
        matrices = random_matrices(6, 3, seed=0)
        l_changes = solve_unconstrained(matrices).change_count
        result = solve_hybrid(matrices, k=l_changes + 1)
        assert result.method == "unconstrained"
        assert result.cost == pytest.approx(
            solve_unconstrained(matrices).cost)

    def test_negative_k_raises(self):
        with pytest.raises(InfeasibleProblemError):
            solve_hybrid(random_matrices(3, 2, seed=0), -1)


class TestWorkEstimates:
    def test_estimates_populated_when_constrained_work_needed(self):
        matrices = random_matrices(10, 4, seed=1)
        result = solve_hybrid(matrices, 1)
        if result.method != "unconstrained":
            assert result.estimated_graph_ops > 0
            assert result.estimated_merge_ops > 0

    def test_graph_estimate_grows_with_k(self):
        matrices = random_matrices(12, 4, seed=2)
        r_small = solve_hybrid(matrices, 1)
        r_large = solve_hybrid(matrices, 5)
        if "unconstrained" not in (r_small.method, r_large.method):
            assert r_large.estimated_graph_ops > \
                r_small.estimated_graph_ops

    def test_merge_estimate_shrinks_with_k(self):
        matrices = random_matrices(12, 4, seed=3)
        r_small = solve_hybrid(matrices, 1)
        r_large = solve_hybrid(matrices, 5)
        if "unconstrained" not in (r_small.method, r_large.method):
            assert r_large.estimated_merge_ops < \
                r_small.estimated_merge_ops
