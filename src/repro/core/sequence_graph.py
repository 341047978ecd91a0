"""Sequence graphs and the unconstrained optimum (Agrawal et al.).

The set of dynamic physical designs for a workload is isomorphic to
the set of source-to-sink paths in a *sequence graph*: one stage of
nodes per statement (one node per candidate configuration), a source
for C0 and an (optionally constrained) destination. Node ``(i, C)``
costs ``EXEC(S_i, C)``; the edge into it costs ``TRANS``. The optimal
unconstrained design is the shortest path (the SIGMOD'06 baseline the
paper builds on).

Because the graph is a layered DAG, we solve it as a stage-by-stage
dynamic program, vectorized over the transition matrix — one kernel,
:func:`_stage_dp`, shared with the LP solver's penalized solves. The
pure-Python reference DP and the explicit-graph shortest path live in
:mod:`repro.verify.reference`. The explicit graph representation
(:class:`SequenceGraph`) is the adjacency the path-ranking solver of
Section 5 walks, plus the graph-shape unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import DesignError
from .costmatrix import CostMatrices

#: Node identifiers in the explicit graph.
SOURCE = ("source",)
SINK = ("sink",)
Node = Tuple


@dataclass(frozen=True)
class ShortestPathResult:
    """Outcome of a sequence-graph optimization.

    Attributes:
        assignment: configuration index per segment.
        cost: objective value (EXEC + TRANS, incl. final transition).
        change_count: number of design changes along the path.
    """

    assignment: Tuple[int, ...]
    cost: float
    change_count: int


def _stage_dp(matrices: CostMatrices, penalty: float,
              count_initial_change: bool
              ) -> Tuple[Tuple[int, ...], float]:
    """The stage-by-stage shortest-path kernel: the path minimizing
    ``cost + penalty * counted_changes``, and that penalized value.

    ``dist[c]`` after stage i is the cheapest value of any design prefix
    ending with configuration c at segment i; the stage transition
    ``dist' = min over p of dist[p] + step[p, c] + exec[i, c]`` is one
    (|C| x |C|) broadcast, ``step`` being TRANS plus ``penalty`` on
    every counted change edge (at penalty 0, ``trans`` itself — no
    copy). Without ``count_initial_change`` the C0 -> C1 hop carries no
    penalty; the hop to a required final configuration never does.

    The ``reach`` buffer is allocated once and reused across stages
    (``out=reach``) instead of churning a |C|^2 array per stage, and is
    laid out ``[c, p]`` so the parent argmin reduces over the *last*
    axis — ``argmin(axis=0)`` on ``[p, c]`` copies the array per stage.
    """
    exec_matrix, trans = matrices.exec_matrix, matrices.trans_matrix
    n_seg, n_cfg = exec_matrix.shape
    step = trans
    if penalty:
        step = trans + penalty
        np.fill_diagonal(step, 0.0)  # staying is never a change
    first = step if count_initial_change else trans
    parents = np.empty((n_seg, n_cfg), dtype=np.int64)
    dist = first[matrices.initial_index] + exec_matrix[0]
    parents[0] = matrices.initial_index
    reach = np.empty((n_cfg, n_cfg),
                     dtype=np.result_type(step, exec_matrix, dist))
    cols = np.arange(n_cfg)
    for i in range(1, n_seg):
        np.add(step.T, dist[None, :], out=reach)  # reach[c, p]
        best_parent = np.argmin(reach, axis=1)
        np.add(reach[cols, best_parent], exec_matrix[i], out=dist)
        parents[i] = best_parent
    if matrices.final_index is not None:
        dist = dist + trans[:, matrices.final_index]
    last = int(np.argmin(dist))
    return _walk_parents(parents, last), float(dist[last])


def solve_unconstrained(matrices: CostMatrices) -> ShortestPathResult:
    """Shortest path through the sequence graph (the vectorized stage
    DP at penalty 0). ``change_count`` is the strict Definition 1
    count; callers on the experimental convention recount with
    :meth:`CostMatrices.change_count`."""
    assignment, cost = _stage_dp(matrices, 0.0, True)
    return ShortestPathResult(
        assignment=assignment, cost=cost,
        change_count=matrices.change_count(assignment))


def _walk_parents(parents: np.ndarray, last: int) -> Tuple[int, ...]:
    n_seg = parents.shape[0]
    assignment = [last]
    for i in range(n_seg - 1, 0, -1):
        last = int(parents[i, last])
        assignment.append(last)
    assignment.reverse()
    return tuple(assignment)


class SequenceGraph:
    """Explicit sequence graph (nodes, weighted edges).

    Node identifiers: ``SOURCE``, ``(stage, config_index)`` and
    ``SINK``. Edge weights fold the target node's EXEC cost into the
    incoming edge, so path length equals the design objective.
    """

    def __init__(self, matrices: CostMatrices):
        self.matrices = matrices
        self.n_segments = matrices.n_segments
        self.n_configurations = matrices.n_configurations

    # -- graph shape -----------------------------------------------------

    def nodes(self) -> List[Node]:
        out: List[Node] = [SOURCE]
        for stage in range(self.n_segments):
            out.extend((stage, cfg)
                       for cfg in range(self.n_configurations))
        out.append(SINK)
        return out

    # -- adjacency ---------------------------------------------------------

    def successors(self, node: Node) -> List[Tuple[Node, float]]:
        matrices = self.matrices
        if node == SOURCE:
            return [((0, c), float(
                matrices.trans_matrix[matrices.initial_index, c] +
                matrices.exec_matrix[0, c]))
                for c in range(self.n_configurations)]
        if node == SINK:
            return []
        stage, cfg = node
        if stage == self.n_segments - 1:
            if matrices.final_index is not None:
                return [(SINK, float(
                    matrices.trans_matrix[cfg, matrices.final_index]))]
            return [(SINK, 0.0)]
        return [((stage + 1, c), float(
            matrices.trans_matrix[cfg, c] +
            matrices.exec_matrix[stage + 1, c]))
            for c in range(self.n_configurations)]

    def predecessors(self, node: Node) -> List[Tuple[Node, float]]:
        matrices = self.matrices
        if node == SOURCE:
            return []
        if node == SINK:
            if matrices.final_index is not None:
                return [((self.n_segments - 1, c), float(
                    matrices.trans_matrix[c, matrices.final_index]))
                    for c in range(self.n_configurations)]
            return [((self.n_segments - 1, c), 0.0)
                    for c in range(self.n_configurations)]
        stage, cfg = node
        if stage == 0:
            return [(SOURCE, float(
                matrices.trans_matrix[matrices.initial_index, cfg] +
                matrices.exec_matrix[0, cfg]))]
        return [((stage - 1, c), float(
            matrices.trans_matrix[c, cfg] +
            matrices.exec_matrix[stage, cfg]))
            for c in range(self.n_configurations)]

    def path_assignment(self, path: Sequence[Node]) -> Tuple[int, ...]:
        """Extract the per-segment configuration indices from a
        source-to-sink node path."""
        return tuple(cfg for node in path[1:-1] for cfg in [node[1]])

    def path_cost(self, path: Sequence[Node]) -> float:
        total = 0.0
        for current, nxt in zip(path, path[1:]):
            for successor, weight in self.successors(current):
                if successor == nxt:
                    total += weight
                    break
            else:
                raise DesignError(f"no edge {current} -> {nxt}")
        return total
