"""Unit tests for sequence graphs and the unconstrained solver."""

import numpy as np
import pytest

from repro.errors import DesignError
from repro.core import kaware
from repro.core.kaware import solve_constrained
from repro.core.sequence_graph import (SINK, SOURCE, SequenceGraph,
                                       solve_unconstrained)
from repro.verify.reference import reference_unconstrained

from .helpers import brute_force_best, random_matrices


class TestUnconstrainedOptimality:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        matrices = random_matrices(n_seg=5, n_cfg=3, seed=seed)
        result = solve_unconstrained(matrices)
        _, best_cost = brute_force_best(matrices, k=None)
        assert result.cost == pytest.approx(best_cost)
        assert matrices.sequence_cost(result.assignment) == \
            pytest.approx(result.cost)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force_with_final(self, seed):
        matrices = random_matrices(n_seg=4, n_cfg=3, seed=seed,
                                   final_index=0)
        result = solve_unconstrained(matrices)
        _, best_cost = brute_force_best(matrices, k=None)
        assert result.cost == pytest.approx(best_cost)

    @pytest.mark.parametrize("seed", range(10))
    def test_vectorized_equals_reference(self, seed):
        matrices = random_matrices(n_seg=7, n_cfg=4, seed=seed)
        fast = solve_unconstrained(matrices)
        slow = reference_unconstrained(matrices)
        assert fast.cost == pytest.approx(slow.cost)
        assert fast.assignment == slow.assignment

    def test_cheap_transitions_track_per_segment_best(self):
        matrices = random_matrices(6, 4, seed=3, trans_scale=0.001)
        result = solve_unconstrained(matrices)
        per_segment = np.argmin(matrices.exec_matrix, axis=1)
        assert list(result.assignment) == list(per_segment)

    def test_huge_transitions_freeze_the_design(self):
        matrices = random_matrices(6, 4, seed=4)
        matrices.trans_matrix[:] = 1e9
        np.fill_diagonal(matrices.trans_matrix, 0.0)
        result = solve_unconstrained(matrices)
        assert result.change_count == 0
        assert all(c == matrices.initial_index
                   for c in result.assignment)

    def test_single_segment(self):
        matrices = random_matrices(1, 3, seed=5)
        result = solve_unconstrained(matrices)
        expected = min(matrices.trans_matrix[0, c] +
                       matrices.exec_matrix[0, c] for c in range(3))
        assert result.cost == pytest.approx(expected)


class TestExplicitGraph:
    @pytest.fixture
    def graph(self):
        return SequenceGraph(random_matrices(3, 2, seed=0))

    def test_node_count_formula(self, graph):
        # n * 2^m + 2 (paper, Section 3).
        assert len(graph.nodes()) == 3 * 2 + 2

    def test_edge_count_formula(self, graph):
        # (n-1) * 2^2m + 2^(m+1).
        assert sum(len(graph.successors(node))
                   for node in graph.nodes()) == 2 * 4 + 4

    def test_source_successors(self, graph):
        successors = graph.successors(SOURCE)
        assert [node for node, _ in successors] == [(0, 0), (0, 1)]

    def test_sink_has_no_successors(self, graph):
        assert graph.successors(SINK) == []

    def test_last_stage_reaches_sink_free_when_unconstrained(self,
                                                             graph):
        for node, weight in graph.successors((2, 0)):
            assert node == SINK and weight == 0.0

    def test_predecessors_mirror_successors(self, graph):
        for node in graph.nodes():
            for successor, weight in graph.successors(node):
                preds = graph.predecessors(successor)
                assert (node, weight) in preds

    def test_path_cost_equals_sequence_cost(self, graph):
        path = [SOURCE, (0, 1), (1, 0), (2, 0), SINK]
        assignment = graph.path_assignment(path)
        assert assignment == (1, 0, 0)
        assert graph.path_cost(path) == pytest.approx(
            graph.matrices.sequence_cost(assignment))

    def test_constrained_final_edge_weights(self):
        matrices = random_matrices(3, 2, seed=1, final_index=0)
        graph = SequenceGraph(matrices)
        weights = dict(graph.successors((2, 1)))
        assert weights[SINK] == pytest.approx(
            matrices.trans_matrix[1, 0])

    def test_invalid_path_edge_raises(self, graph):
        with pytest.raises(DesignError):
            graph.path_cost([SOURCE, SINK])

    def test_shortest_path_through_graph_matches_dp(self, graph):
        # Dijkstra-free check: enumerate all paths of this tiny graph.
        def all_paths(node):
            if node == SINK:
                return [[SINK]]
            return [[node] + rest
                    for successor, _ in graph.successors(node)
                    for rest in all_paths(successor)]

        best = min(graph.path_cost(p) for p in all_paths(SOURCE))
        assert solve_unconstrained(graph.matrices).cost == \
            pytest.approx(best)


class TestAllocationBudget:
    def test_reach_buffer_is_reused_across_stages(self):
        """The (|C| x |C|) broadcast buffer is allocated once, not
        per stage: peak traced allocation must stay near ONE reach
        buffer (the pre-fix DP rebound a fresh one each stage,
        peaking at two live buffers)."""
        import tracemalloc

        n_seg, n_cfg = 12, 400
        matrices = random_matrices(n_seg=n_seg, n_cfg=n_cfg, seed=0)
        solve_unconstrained(matrices)  # warm numpy / import caches
        tracemalloc.start()
        result = solve_unconstrained(matrices)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        reach_bytes = n_cfg * n_cfg * 8
        parents_bytes = n_seg * n_cfg * 8
        slack = 256 * 1024  # argmin/gather temporaries, bookkeeping
        assert peak < parents_bytes + int(1.5 * reach_bytes) + slack, (
            f"peak {peak} bytes suggests the reach buffer is being "
            f"reallocated per stage (budget ~1x reach = {reach_bytes})")
        # The buffer reuse must not perturb the optimum.
        assert result.cost == pytest.approx(
            reference_unconstrained(matrices).cost)

    def test_kaware_change_step_holds_one_block(self):
        """The k-aware change step walks the layers in blocks through
        one reused (_BLOCK x |C| x |C|) buffer: peak traced allocation
        is one block, the [c, p] change matrix and the parent tables —
        not the k x |C| x |C| temporary the step used to build per
        stage."""
        import tracemalloc

        n_seg, n_cfg, k = 20, 300, 16
        matrices = random_matrices(n_seg=n_seg, n_cfg=n_cfg, seed=0)
        solve_constrained(matrices, k)  # warm numpy / import caches
        tracemalloc.start()
        solve_constrained(matrices, k)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        square = n_cfg * n_cfg * 8
        parents_bytes = n_seg * (k + 1) * n_cfg * 5  # int32 + bool
        slack = 256 * 1024  # gather indices, dist rows, bookkeeping
        budget = parents_bytes + square + kaware._BLOCK * square + slack
        assert budget < k * square
        assert peak < budget, (
            f"peak {peak} bytes exceeds one {kaware._BLOCK}-layer block "
            f"plus the change matrix and parent tables ({budget})")
