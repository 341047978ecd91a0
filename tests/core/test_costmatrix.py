"""Unit tests for cost providers and matrices."""

import numpy as np
import pytest

from repro.core import (Configuration, EMPTY_CONFIGURATION,
                        MatrixCostProvider, ProblemInstance,
                        WhatIfCostProvider, build_cost_matrices)
from repro.errors import DesignError
from repro.sqlengine import IndexDef
from repro.workload import Segment, Statement

from .helpers import random_matrices

A = IndexDef("t", ("a",))
CONFIG_A = Configuration({A})


class TestWhatIfCostProvider:
    def test_exec_cost_sums_statements(self, small_provider):
        s1 = Statement("SELECT a FROM t WHERE a = 1")
        s2 = Statement("SELECT a FROM t WHERE a = 2")
        seg1 = Segment((s1,), 0)
        seg2 = Segment((s1, s2), 0)
        c1 = small_provider.exec_cost(seg1, EMPTY_CONFIGURATION)
        c2 = small_provider.exec_cost(seg2, EMPTY_CONFIGURATION)
        assert c2 == pytest.approx(2 * c1)

    def test_exec_cache_hit_is_identical(self, small_provider):
        seg = Segment((Statement("SELECT a FROM t WHERE a = 3"),), 0)
        first = small_provider.exec_cost(seg, CONFIG_A)
        second = small_provider.exec_cost(seg, CONFIG_A)
        assert first == second

    def test_trans_cost_zero_on_identity(self, small_provider):
        assert small_provider.trans_cost(CONFIG_A, CONFIG_A) == 0.0

    def test_size_bytes_positive(self, small_provider):
        assert small_provider.size_bytes(CONFIG_A) > 0
        assert small_provider.size_bytes(EMPTY_CONFIGURATION) == 0

    def test_view_configs_cached_separately(self, small_provider):
        """Regression: the exec cache key must cover the *full*
        structure set — two configurations with the same indexes but
        different views are different cache entries."""
        from repro.sqlengine import ViewDef
        seg = Segment((Statement("SELECT a FROM t"),), 0)
        with_view = Configuration({ViewDef("t", ("a",))})
        scan = small_provider.exec_cost(seg, EMPTY_CONFIGURATION)
        projected = small_provider.exec_cost(seg, with_view)
        assert projected < scan
        # Replays land on their own entries, not each other's.
        assert small_provider.exec_cost(seg,
                                        EMPTY_CONFIGURATION) == scan
        assert small_provider.exec_cost(seg, with_view) == projected


class TestMatrixCostProvider:
    def make(self):
        segs = [Segment((Statement("SELECT a FROM t"),), i)
                for i in range(2)]
        configs = [EMPTY_CONFIGURATION, CONFIG_A]
        exec_matrix = np.array([[1.0, 2.0], [3.0, 4.0]])
        trans = np.array([[0.0, 5.0], [1.0, 0.0]])
        return segs, configs, MatrixCostProvider(
            segs, configs, exec_matrix, trans,
            sizes={CONFIG_A: 7})

    def test_lookups(self):
        segs, configs, provider = self.make()
        assert provider.exec_cost(segs[1], configs[0]) == 3.0
        assert provider.trans_cost(configs[0], configs[1]) == 5.0
        assert provider.size_bytes(configs[1]) == 7
        assert provider.size_bytes(configs[0]) == 0

    def test_shape_validation(self):
        segs = [Segment((Statement("SELECT a FROM t"),), 0)]
        configs = [EMPTY_CONFIGURATION]
        with pytest.raises(DesignError):
            MatrixCostProvider(segs, configs, np.zeros((2, 1)),
                               np.zeros((1, 1)))
        with pytest.raises(DesignError):
            MatrixCostProvider(segs, configs, np.zeros((1, 1)),
                               np.zeros((2, 2)))

    def test_nonzero_diagonal_rejected(self):
        segs = [Segment((Statement("SELECT a FROM t"),), 0)]
        configs = [EMPTY_CONFIGURATION]
        with pytest.raises(DesignError):
            MatrixCostProvider(segs, configs, np.zeros((1, 1)),
                               np.array([[1.0]]))

    def test_segment_value_copy_resolves(self):
        """Regression: segments are keyed by value, not identity — a
        reconstructed (equal) segment hits the same matrix row."""
        segs, configs, provider = self.make()
        copy = Segment(tuple(segs[1].statements), segs[1].start)
        assert copy is not segs[1]
        assert provider.exec_cost(copy, configs[0]) == 3.0

    def test_unknown_segment_raises(self):
        _, configs, provider = self.make()
        stranger = Segment((Statement("SELECT a FROM t"),), 99)
        with pytest.raises(DesignError):
            provider.exec_cost(stranger, configs[0])

    def test_unknown_configuration_raises_design_error(self):
        """Regression: a configuration off the matrix axis used to
        escape as a bare KeyError while an unknown segment raised
        DesignError; both are DesignError naming the offender."""
        segs, configs, provider = self.make()
        stranger = Configuration({IndexDef("t", ("b",))})
        for call in (lambda: provider.exec_cost(segs[0], stranger),
                     lambda: provider.trans_cost(configs[0], stranger),
                     lambda: provider.trans_cost(stranger, configs[0])):
            with pytest.raises(DesignError, match=r"I\(b\)"):
                call()


class TestCostMatrices:
    def test_build_from_problem(self, small_problem, small_provider):
        matrices = build_cost_matrices(small_problem, small_provider)
        assert matrices.exec_matrix.shape == (
            small_problem.n_segments, small_problem.n_configurations)
        assert np.all(np.diag(matrices.trans_matrix) == 0)
        assert matrices.initial_index == \
            matrices.config_index(small_problem.initial)
        assert matrices.final_index is not None

    def test_config_index_unknown_raises(self):
        matrices = random_matrices(3, 3, seed=0)
        with pytest.raises(DesignError):
            matrices.config_index(Configuration({IndexDef("t",
                                                          ("zz",))}))

    def test_config_index_maps_every_config(self):
        matrices = random_matrices(3, 5, seed=6)
        for i, config in enumerate(matrices.configurations):
            assert matrices.config_index(config) == i
        # Repeat lookups ride the lazily-built map.
        for i, config in enumerate(matrices.configurations):
            assert matrices.config_index(config) == i

    def test_prefix_sums(self):
        matrices = random_matrices(5, 3, seed=1)
        run = matrices.exec_run_cost(1, 4, 2)
        expected = matrices.exec_matrix[1:4, 2].sum()
        assert run == pytest.approx(expected)

    def test_sequence_cost_manual(self):
        matrices = random_matrices(3, 3, seed=2)
        assignment = [1, 1, 2]
        manual = (matrices.trans_matrix[0, 1] +
                  matrices.exec_matrix[0, 1] +
                  matrices.exec_matrix[1, 1] +
                  matrices.trans_matrix[1, 2] +
                  matrices.exec_matrix[2, 2])
        assert matrices.sequence_cost(assignment) == pytest.approx(
            manual)

    def test_sequence_cost_with_final(self):
        matrices = random_matrices(2, 3, seed=3, final_index=0)
        assignment = [1, 1]
        without_final = (matrices.trans_matrix[0, 1] +
                         matrices.exec_matrix[:, 1].sum())
        assert matrices.sequence_cost(assignment) == pytest.approx(
            without_final + matrices.trans_matrix[1, 0])

    def test_sequence_cost_length_check(self):
        matrices = random_matrices(3, 2, seed=4)
        with pytest.raises(DesignError):
            matrices.sequence_cost([0])

    def test_change_count_includes_initial_step(self):
        matrices = random_matrices(3, 3, seed=5, initial_index=0)
        assert matrices.change_count([0, 0, 0]) == 0
        assert matrices.change_count([1, 1, 1]) == 1
        assert matrices.change_count([1, 0, 1]) == 3

    @pytest.mark.parametrize("assignment, strict, between", [
        ([0, 0, 0], 0, 0), ([1, 1, 1], 1, 0), ([1, 0, 1], 3, 2),
        ([0, 1, 1], 1, 1), ([2], 1, 0)])
    def test_change_count_both_counting_modes(self, assignment,
                                              strict, between):
        """The one Definition 1 counter: C0 -> C1 counts under the
        strict mode and is free under the experimental one."""
        matrices = random_matrices(len(assignment), 3, seed=5,
                                   initial_index=0)
        assert matrices.change_count(assignment) == strict
        assert matrices.change_count(
            assignment, count_initial_change=True) == strict
        assert matrices.change_count(
            assignment, count_initial_change=False) == between

    def test_change_count_ignores_required_final(self):
        matrices = random_matrices(3, 3, seed=5, initial_index=0,
                                   final_index=2)
        assert matrices.change_count([0, 0, 0]) == 0
        assert matrices.change_count([1, 1, 1], False) == 0
