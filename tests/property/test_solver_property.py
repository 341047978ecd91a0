"""Property-based tests for the design solvers on random instances.

Ground truth is exhaustive enumeration (instances are kept tiny), and
the solvers are cross-checked against each other on larger instances.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.costmatrix import CostMatrices
from repro.core.kaware import solve_constrained
from repro.core.merging import merge_to_k
from repro.core.ranking import solve_by_ranking
from repro.core.sequence_graph import _stage_dp, solve_unconstrained
from repro.verify.reference import (reference_constrained,
                                    reference_unconstrained)

from ..core.helpers import brute_force_best, synthetic_configs


@st.composite
def matrices_strategy(draw, max_seg=5, max_cfg=3,
                      allow_final=True):
    n_seg = draw(st.integers(1, max_seg))
    n_cfg = draw(st.integers(2, max_cfg))
    exec_values = draw(st.lists(
        st.floats(0.0, 100.0, allow_nan=False),
        min_size=n_seg * n_cfg, max_size=n_seg * n_cfg))
    trans_values = draw(st.lists(
        st.floats(0.0, 50.0, allow_nan=False),
        min_size=n_cfg * n_cfg, max_size=n_cfg * n_cfg))
    exec_matrix = np.array(exec_values).reshape(n_seg, n_cfg)
    trans_matrix = np.array(trans_values).reshape(n_cfg, n_cfg)
    np.fill_diagonal(trans_matrix, 0.0)
    initial = draw(st.integers(0, n_cfg - 1))
    final = None
    if allow_final and draw(st.booleans()):
        final = draw(st.integers(0, n_cfg - 1))
    return CostMatrices(configurations=synthetic_configs(n_cfg),
                        exec_matrix=exec_matrix,
                        trans_matrix=trans_matrix,
                        initial_index=initial, final_index=final)


@given(matrices=matrices_strategy())
@settings(max_examples=60, deadline=None)
def test_unconstrained_solver_is_optimal(matrices):
    result = solve_unconstrained(matrices)
    _, best = brute_force_best(matrices, k=None)
    assert result.cost == pytest.approx(best)
    assert matrices.sequence_cost(result.assignment) == \
        pytest.approx(result.cost)


@given(matrices=matrices_strategy(), k=st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_kaware_solver_is_optimal(matrices, k):
    result = solve_constrained(matrices, k)
    _, best = brute_force_best(matrices, k)
    assert result.cost == pytest.approx(best)
    assert matrices.change_count(result.assignment) <= k


@given(matrices=matrices_strategy(), k=st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_kaware_vectorized_equals_reference(matrices, k):
    fast = solve_constrained(matrices, k)
    slow = reference_constrained(matrices, k)
    assert fast.cost == pytest.approx(slow.cost)


@given(matrices=matrices_strategy())
@settings(max_examples=40, deadline=None)
def test_unconstrained_vectorized_equals_reference(matrices):
    assert solve_unconstrained(matrices).cost == pytest.approx(
        reference_unconstrained(matrices).cost)


@given(matrices=matrices_strategy(max_seg=8, max_cfg=4),
       k=st.integers(0, 5))
@settings(max_examples=50, deadline=None)
def test_merging_is_feasible_and_dominated_by_optimum(matrices, k):
    start = list(solve_unconstrained(matrices).assignment)
    merged = merge_to_k(matrices, start, k)
    assert matrices.change_count(merged.assignment) <= k
    assert matrices.sequence_cost(merged.assignment) == \
        pytest.approx(merged.cost)
    optimum = solve_constrained(matrices, k)
    assert merged.cost >= optimum.cost - 1e-6


@given(matrices=matrices_strategy(max_seg=4, max_cfg=3),
       k=st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_ranking_agrees_with_kaware(matrices, k):
    ranked = solve_by_ranking(matrices, k, max_paths=200_000)
    exact = solve_constrained(matrices, k)
    assert ranked.cost == pytest.approx(exact.cost)


@given(matrices=matrices_strategy(max_seg=6, max_cfg=4))
@settings(max_examples=40, deadline=None)
def test_cost_is_monotone_in_k(matrices):
    previous = float("inf")
    # k = n_segments suffices for any design (one change per segment).
    for k in range(0, matrices.n_segments + 1):
        cost = solve_constrained(matrices, k).cost
        assert cost <= previous + 1e-9
        previous = cost
    # And the loosest budget recovers the unconstrained optimum.
    assert previous == pytest.approx(solve_unconstrained(matrices).cost)


@given(matrices=matrices_strategy(max_seg=6, max_cfg=4),
       count_initial_change=st.booleans())
@settings(max_examples=60, deadline=None)
def test_stage_kernel_at_zero_penalty_is_the_unconstrained_solver(
        matrices, count_initial_change):
    """The one stage DP: at penalty 0 the kernel the LP solver runs is
    ``solve_unconstrained`` to the bit under either counting mode, and
    the one change counter equals a brute-force neighbour count."""
    assignment, cost = _stage_dp(matrices, 0.0, count_initial_change)
    result = solve_unconstrained(matrices)
    assert assignment == result.assignment
    assert cost == result.cost
    between = sum(1 for i in range(1, len(assignment))
                  if assignment[i - 1] != assignment[i])
    leaves_initial = int(assignment[0] != matrices.initial_index)
    assert matrices.change_count(assignment, False) == between
    assert matrices.change_count(assignment, True) == \
        between + leaves_initial
    assert result.change_count == between + leaves_initial
