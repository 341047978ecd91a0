"""Tests for the atom-based problem formulation over summaries."""

import numpy as np
import pytest

from repro.core import (CostService, EMPTY_CONFIGURATION,
                        SummaryProblemInstance, build_cost_matrices,
                        problem_from_summary, summarize_problem)
from repro.errors import InfeasibleProblemError
from repro.workload import Statement, summarize_statements
from repro.workload.summary import PhaseSummary, WorkloadAtom


def _phase(start=0, length=2):
    atom = WorkloadAtom(Statement("SELECT a FROM t WHERE a = 1"),
                        length)
    return PhaseSummary(atoms=(atom,), start=start, length=length)


class TestSummaryProblemInstance:
    def test_segment_axis_alias(self):
        problem = SummaryProblemInstance(
            phases=(_phase(),), configurations=(EMPTY_CONFIGURATION,),
            initial=EMPTY_CONFIGURATION)
        assert problem.segments is problem.phases
        assert problem.n_segments == 1
        assert problem.n_statements == 2
        assert problem.n_atoms == 1

    def test_empty_phases_raise(self):
        with pytest.raises(InfeasibleProblemError):
            SummaryProblemInstance(
                phases=(), configurations=(EMPTY_CONFIGURATION,),
                initial=EMPTY_CONFIGURATION)

    def test_negative_k_raises(self):
        with pytest.raises(InfeasibleProblemError):
            SummaryProblemInstance(
                phases=(_phase(),),
                configurations=(EMPTY_CONFIGURATION,),
                initial=EMPTY_CONFIGURATION, k=-1)

    def test_initial_prepended_when_missing(self, paper_candidates):
        from repro.core import single_index_configurations
        configs = tuple(
            c for c in single_index_configurations(paper_candidates)
            if c != EMPTY_CONFIGURATION)
        problem = SummaryProblemInstance(
            phases=(_phase(),), configurations=configs,
            initial=EMPTY_CONFIGURATION)
        assert problem.configurations[0] == EMPTY_CONFIGURATION

    def test_with_k_preserves_axes(self):
        problem = SummaryProblemInstance(
            phases=(_phase(),), configurations=(EMPTY_CONFIGURATION,),
            initial=EMPTY_CONFIGURATION, k=2)
        relaxed = problem.with_k(None)
        assert relaxed.k is None
        assert relaxed.phases == problem.phases

    def test_problem_from_summary_round_trip(self):
        statements = [Statement(f"SELECT a FROM t WHERE a = {i % 3}")
                      for i in range(10)]
        summary = summarize_statements(iter(statements), 5)
        problem = problem_from_summary(
            summary, (EMPTY_CONFIGURATION,),
            initial=EMPTY_CONFIGURATION, k=1)
        assert problem.n_segments == summary.n_phases
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
