"""Tests for problems built over (or compressed into) summaries."""

import numpy as np

from repro.core import (CostService, EMPTY_CONFIGURATION,
                        build_cost_matrices, problem_from_summary,
                        summarize_problem)
from repro.workload import Statement, summarize_statements


class TestProblemFromSummary:
    def test_problem_from_summary_round_trip(self):
        statements = [Statement(f"SELECT a FROM t WHERE a = {i % 3}")
                      for i in range(10)]
        summary = summarize_statements(iter(statements), 5)
        problem = problem_from_summary(
            summary, (EMPTY_CONFIGURATION,),
            initial=EMPTY_CONFIGURATION, k=1)
        assert problem.segments == summary.phases
        assert problem.n_statements == 10
        assert problem.k == 1


class TestSummarizeProblem:
    def test_preserves_problem_shape(self, small_problem):
        compressed = summarize_problem(small_problem)
        assert compressed.n_segments == small_problem.n_segments
        assert compressed.configurations == \
            small_problem.configurations
        assert compressed.initial == small_problem.initial
        assert compressed.n_statements == \
            sum(len(s) for s in small_problem.segments)

    def test_matrices_bit_identical(self, small_db, small_problem):
        raw = build_cost_matrices(
            small_problem, CostService(small_db.what_if()))
        compressed = build_cost_matrices(
            summarize_problem(small_problem),
            CostService(small_db.what_if()))
        assert np.array_equal(raw.exec_matrix,
                              compressed.exec_matrix)
        assert np.array_equal(raw.trans_matrix,
                              compressed.trans_matrix)
        assert raw.initial_index == compressed.initial_index

    def test_serial_provider_matches_batched(self, small_problem,
                                             small_provider,
                                             small_matrices):
        compressed = build_cost_matrices(
            summarize_problem(small_problem), small_provider)
        assert np.array_equal(small_matrices.exec_matrix,
                              compressed.exec_matrix)
