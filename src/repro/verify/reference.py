"""Reference solvers — slow, independent, and only ever compared against.

``repro.core`` exports one solver per problem (the vectorized stage DP
of :mod:`repro.core.sequence_graph` and the k-aware DP of
:mod:`repro.core.kaware`). The implementations they are checked
against live here: two pure-Python DPs and a node-by-node relaxation
over the explicit :class:`~repro.core.sequence_graph.SequenceGraph`
adjacency. Verify family 1 (:mod:`repro.verify.checks`) and the solver
tests require exact (0 ulp) agreement with them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..core.costmatrix import CostMatrices
from ..core.kaware import ConstrainedResult
from ..core.sequence_graph import (SINK, SOURCE, SequenceGraph,
                                   ShortestPathResult)
from ..errors import DesignError, InfeasibleProblemError


def reference_unconstrained(matrices: CostMatrices
                            ) -> ShortestPathResult:
    """Pure-Python reference DP (used to validate the vectorized one)."""
    exec_matrix, trans = matrices.exec_matrix, matrices.trans_matrix
    n_seg, n_cfg = exec_matrix.shape
    dist = [float(trans[matrices.initial_index, c] + exec_matrix[0, c])
            for c in range(n_cfg)]
    parents: List[List[int]] = [[matrices.initial_index] * n_cfg]
    for i in range(1, n_seg):
        new_dist = []
        stage_parents = []
        for c in range(n_cfg):
            best, best_p = float("inf"), 0
            for p in range(n_cfg):
                candidate = dist[p] + float(trans[p, c])
                if candidate < best:
                    best, best_p = candidate, p
            new_dist.append(best + float(exec_matrix[i, c]))
            stage_parents.append(best_p)
        dist = new_dist
        parents.append(stage_parents)
    if matrices.final_index is not None:
        dist = [d + float(trans[c, matrices.final_index])
                for c, d in enumerate(dist)]
    last = min(range(n_cfg), key=lambda c: dist[c])
    cost = float(dist[last])
    assignment = [last]
    for i in range(n_seg - 1, 0, -1):
        last = parents[i][last]
        assignment.append(last)
    assignment.reverse()
    assignment_t = tuple(assignment)
    return ShortestPathResult(
        assignment=assignment_t, cost=cost,
        change_count=matrices.change_count(assignment_t))


def graph_shortest_path(graph: SequenceGraph) -> ShortestPathResult:
    """Shortest source-to-sink path over the *explicit* edge lists.

    This is deliberately a third, independent implementation of the
    unconstrained optimum: a node-by-node relaxation in topological
    order over ``graph.successors`` adjacency, with none of the matrix
    broadcasting of :func:`~repro.core.sequence_graph.
    solve_unconstrained`. The verification harness cross-checks all three paths against each
    other. Ties break toward the lowest predecessor configuration
    index (the same rule the DP solvers use). The reported cost is
    the canonical :meth:`CostMatrices.sequence_cost` of the
    reconstructed assignment, so agreement checks compare exact
    like with like.
    """
    dist = {SOURCE: 0.0}
    parent: dict = {}
    for node in graph.nodes():
        node_dist = dist.get(node)
        if node_dist is None:
            continue
        for successor, weight in graph.successors(node):
            candidate = node_dist + weight
            if successor not in dist or candidate < dist[successor]:
                dist[successor] = candidate
                parent[successor] = node
    path = [SINK]
    while path[-1] != SOURCE:
        path.append(parent[path[-1]])
    path.reverse()
    assignment = graph.path_assignment(path)
    return ShortestPathResult(
        assignment=assignment,
        cost=graph.matrices.sequence_cost(assignment),
        change_count=graph.matrices.change_count(assignment))


def lower_convex_envelope(values: Sequence[float]) -> List[float]:
    """The lower convex envelope of the curve ``values`` at each index.

    With ``values[j]`` the exact optimum under at most j changes, the
    envelope at k is the Lagrangian dual of the change budget: the
    best bound any multiplier can certify. In one dimension it is the
    cheapest chord over a pair ``a < k < b``, or ``values[k]`` itself.
    """
    n = len(values)
    return [min([values[k]] + [
        ((b - k) * values[a] + (k - a) * values[b]) / (b - a)
        for a in range(k) for b in range(k + 1, n)]) for k in range(n)]


def reference_constrained(matrices: CostMatrices, k: int,
                          count_initial_change: bool = True
                          ) -> ConstrainedResult:
    """Pure-Python k-aware DP (validates the vectorized solver)."""
    if k < 0:
        raise InfeasibleProblemError(f"change budget k={k} is negative")
    exec_matrix, trans = matrices.exec_matrix, matrices.trans_matrix
    n_seg, n_cfg = exec_matrix.shape
    n_layers = k + 1
    inf = float("inf")
    dist = [[inf] * n_cfg for _ in range(n_layers)]
    back: List[List[List[Optional[Tuple[int, int]]]]] = []
    if count_initial_change:
        dist[0][matrices.initial_index] = float(
            exec_matrix[0, matrices.initial_index])
        if n_layers > 1:
            for c in range(n_cfg):
                if c != matrices.initial_index:
                    dist[1][c] = float(
                        trans[matrices.initial_index, c] +
                        exec_matrix[0, c])
    else:
        for c in range(n_cfg):
            dist[0][c] = float(trans[matrices.initial_index, c] +
                               exec_matrix[0, c])
    back.append([[None] * n_cfg for _ in range(n_layers)])
    for i in range(1, n_seg):
        new_dist = [[inf] * n_cfg for _ in range(n_layers)]
        pointers: List[List[Optional[Tuple[int, int]]]] = \
            [[None] * n_cfg for _ in range(n_layers)]
        for l in range(n_layers):
            for c in range(n_cfg):
                exec_cost = float(exec_matrix[i, c])
                best = dist[l][c] + exec_cost
                best_ptr: Optional[Tuple[int, int]] = (l, c)
                if l > 0:
                    # Pick the change parent on the pre-exec base
                    # (dist + trans), then compare totals with the
                    # stay edge, ties going to "stay" — exactly the
                    # vectorized solver's order. (a + e) == (b + e)
                    # can hold bitwise for a != b, so where exec is
                    # added changes which tied parent wins.
                    base, parent = inf, None
                    for p in range(n_cfg):
                        if p == c:
                            continue
                        candidate = dist[l - 1][p] + float(trans[p, c])
                        if candidate < base:
                            base, parent = candidate, p
                    if parent is not None and base + exec_cost < best:
                        best = base + exec_cost
                        best_ptr = (l - 1, parent)
                if best < inf:
                    new_dist[l][c] = best
                    pointers[l][c] = best_ptr
        dist = new_dist
        back.append(pointers)
    best, best_state = inf, None
    for l in range(n_layers):
        for c in range(n_cfg):
            total = dist[l][c]
            if matrices.final_index is not None and total < inf:
                total += float(trans[c, matrices.final_index])
            if total < best:
                best, best_state = total, (l, c)
    if best_state is None:
        raise InfeasibleProblemError(
            f"no design sequence with at most {k} changes is feasible")
    layer, cfg = best_state
    assignment = [cfg]
    for i in range(n_seg - 1, 0, -1):
        pointer = back[i][layer][cfg]
        if pointer is None:
            raise DesignError(
                f"broken backpointer chain at segment {i} "
                f"(layer {layer}, config {cfg}); the DP table is "
                f"inconsistent")
        layer, cfg = pointer
        assignment.append(cfg)
    assignment.reverse()
    assignment_t = tuple(assignment)
    return ConstrainedResult(
        assignment=assignment_t, cost=float(best),
        change_count=matrices.change_count(assignment_t,
                                           count_initial_change),
        layers_used=best_state[0])
