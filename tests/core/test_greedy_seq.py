"""Unit tests for GREEDY-SEQ candidate reduction."""

import numpy as np
import pytest

from repro.core import (Configuration, EMPTY_CONFIGURATION,
                        MatrixCostProvider, build_cost_matrices,
                        solve_constrained)
from repro.core.greedy_seq import greedy_seq_candidates, reduce_problem
from repro.core.problem import ProblemInstance
from repro.sqlengine import IndexDef
from repro.workload import Segment, Statement

A = IndexDef("t", ("a",))
B = IndexDef("t", ("b",))
C = IndexDef("t", ("c",))


def make_setup(exec_by_best, trans=1.0, sizes=None):
    """Synthetic provider where segment i's best single config is
    dictated by ``exec_by_best`` (list of config positions; 0=empty,
    1=A, 2=B, 3=C)."""
    segments = [Segment((Statement(f"SELECT a FROM t WHERE a = {i}"),),
                        i) for i in range(len(exec_by_best))]
    configs = [EMPTY_CONFIGURATION, Configuration({A}),
               Configuration({B}), Configuration({C}),
               Configuration({A, B}), Configuration({A, C}),
               Configuration({B, C})]
    exec_matrix = np.full((len(segments), len(configs)), 10.0)
    for i, best in enumerate(exec_by_best):
        exec_matrix[i, best] = 1.0
        # Union configs containing the best index are nearly as good.
        for j, config in enumerate(configs):
            if j >= 4 and configs[best].indexes <= config.indexes:
                exec_matrix[i, j] = 1.5
    trans_matrix = np.full((len(configs), len(configs)), trans)
    np.fill_diagonal(trans_matrix, 0.0)
    provider = MatrixCostProvider(segments, configs, exec_matrix,
                                  trans_matrix, sizes=sizes)
    return segments, configs, provider


class TestCandidateGeneration:
    def test_per_segment_bests_found(self):
        segments, configs, provider = make_setup([1, 1, 2, 2])
        greedy = greedy_seq_candidates(segments, [A, B, C], provider)
        assert greedy.per_segment_best == (
            configs[1], configs[1], configs[2], configs[2])

    def test_candidates_include_bests_and_union(self):
        segments, configs, provider = make_setup([1, 2])
        greedy = greedy_seq_candidates(segments, [A, B, C], provider)
        assert configs[1] in greedy.configurations
        assert configs[2] in greedy.configurations
        assert Configuration({A, B}) in greedy.configurations

    def test_initial_and_empty_always_present(self):
        segments, configs, provider = make_setup([1, 1])
        greedy = greedy_seq_candidates(segments, [A, B, C], provider,
                                       initial=configs[2])
        assert configs[2] in greedy.configurations
        assert EMPTY_CONFIGURATION in greedy.configurations

    def test_probe_count_is_m_plus_1_per_segment(self):
        segments, _, provider = make_setup([1, 2, 1])
        greedy = greedy_seq_candidates(segments, [A, B, C], provider)
        assert greedy.n_explored == 3 * 4

    def test_space_bound_drops_large_unions(self):
        sizes = {Configuration({A}): 10, Configuration({B}): 10,
                 Configuration({A, B}): 20}
        segments, configs, provider = make_setup([1, 2], sizes=sizes)
        greedy = greedy_seq_candidates(segments, [A, B], provider,
                                       space_bound_bytes=15)
        assert Configuration({A, B}) not in greedy.configurations
        assert configs[1] in greedy.configurations

    def test_oversized_initial_is_kept(self):
        """Regression: the space-bound filter used to drop the
        *initial* configuration too, leaving the reduced problem
        without its C0 (the initial already exists on disk — the bound
        constrains what may be built, not what is)."""
        sizes = {Configuration({A}): 10, Configuration({B}): 10,
                 Configuration({A, B}): 20}
        segments, configs, provider = make_setup([1, 2], sizes=sizes)
        greedy = greedy_seq_candidates(
            segments, [A, B], provider,
            initial=Configuration({A, B}), space_bound_bytes=15)
        assert Configuration({A, B}) in greedy.configurations

    def test_oversized_required_final_raises(self):
        """Regression: an unbuildable required final used to be
        silently dropped, producing an InfeasibleProblemError (or a
        wrong design) far downstream instead of a clear error here."""
        from repro.errors import DesignError
        sizes = {Configuration({A}): 10, Configuration({B}): 10,
                 Configuration({A, B}): 20}
        segments, configs, provider = make_setup([1, 2], sizes=sizes)
        with pytest.raises(DesignError, match="space bound"):
            greedy_seq_candidates(
                segments, [A, B], provider,
                final=Configuration({A, B}), space_bound_bytes=15)

    def test_in_bound_final_is_kept(self):
        sizes = {Configuration({A}): 10, Configuration({B}): 10,
                 Configuration({A, B}): 20}
        segments, configs, provider = make_setup([1, 1], sizes=sizes)
        greedy = greedy_seq_candidates(
            segments, [A, B], provider,
            final=Configuration({B}), space_bound_bytes=15)
        assert Configuration({B}) in greedy.configurations

    def test_unions_only_consecutive_local_bests(self):
        segments, configs, provider = make_setup([1, 2, 3])
        greedy = greedy_seq_candidates(segments, [A, B, C], provider)
        assert Configuration({A, B}) in greedy.configurations
        assert Configuration({B, C}) in greedy.configurations
        assert Configuration({A, C}) not in greedy.configurations


class TestReduceProblem:
    def test_reduced_problem_solvable_and_good(self):
        segments, configs, provider = make_setup([1, 1, 2, 2, 1, 1])
        problem = ProblemInstance(segments=tuple(segments),
                                  configurations=tuple(configs),
                                  initial=EMPTY_CONFIGURATION, k=2)
        reduced, greedy = reduce_problem(problem, provider)
        assert reduced.n_configurations <= problem.n_configurations
        full = solve_constrained(
            build_cost_matrices(problem, provider), 2)
        small = solve_constrained(
            build_cost_matrices(reduced, provider), 2)
        # Reduced space contains the full optimum here.
        assert small.cost == pytest.approx(full.cost)

    def test_candidate_indexes_inferred_from_problem(self):
        segments, configs, provider = make_setup([1, 2])
        problem = ProblemInstance(segments=tuple(segments),
                                  configurations=tuple(configs[:3]),
                                  initial=EMPTY_CONFIGURATION)
        reduced, greedy = reduce_problem(problem, provider)
        probed = {d for config in greedy.configurations
                  for d in config.indexes}
        assert probed <= {A, B}
