"""Constrained design via shortest-path ranking (Section 5).

The constrained problem is a constrained-shortest-path instance, so a
simple, fully general solver is to *rank* source-to-sink paths of the
ordinary (unlayered) sequence graph in ascending cost and stop at the
first path whose design sequence satisfies the change budget. Since
every earlier path was infeasible and every later path costs at least
as much, that first feasible path is optimal.

Ranking is implemented with the Recursive Enumeration Algorithm (REA,
Jimenez & Marzal), which matches the path-deletion idea the paper
cites: after the shortest path, the next path to any node v is the
cheapest unused *deviation* — either another predecessor's best path or
the next-best path of the current predecessor. The sequence graph is a
layered DAG, so rank-1 paths come from a single forward sweep and each
subsequent path costs O(n 2^m) candidate work, as in the paper.

The worst case is exponential (the paper spells out the combinatorics),
so the solver takes a ``max_paths`` cap and raises
:class:`RankingExhaustedError` beyond it.
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import (DesignError, InfeasibleProblemError,
                      RankingExhaustedError)
from .costmatrix import CostMatrices
from .sequence_graph import SINK, SOURCE, Node, SequenceGraph

#: A ranked path entry at a node: (cost, predecessor node, predecessor
#: path rank). Rank is 1-based; the rank-1 entry is the tree path.
_Entry = Tuple[float, Optional[Node], int]


@dataclass(frozen=True)
class RankingResult:
    """Outcome of ranking-based constrained optimization.

    Attributes:
        assignment: configuration index per segment.
        cost: objective value of the returned (optimal) design.
        change_count: its number of changes.
        paths_examined: how many ranked paths were inspected, the
            quantity Section 5's complexity analysis bounds.
    """

    assignment: Tuple[int, ...]
    cost: float
    change_count: int
    paths_examined: int


def solve_by_ranking(matrices: CostMatrices, k: int,
                     count_initial_change: bool = True,
                     max_paths: int = 200_000) -> RankingResult:
    """Rank paths until one has at most ``k`` design changes.

    Raises:
        InfeasibleProblemError: k < 0.
        RankingExhaustedError: more than ``max_paths`` paths were
            enumerated without finding a feasible one.
    """
    if k < 0:
        raise InfeasibleProblemError(f"change budget k={k} is negative")
    ranker = _PathRanker(SequenceGraph(matrices))
    examined = 0
    best_infeasible = float("inf")
    for rank in range(1, max_paths + 1):
        entry = ranker.path(SINK, rank)
        if entry is None:
            # The graph's path supply is exhausted; with a complete
            # transition matrix this cannot happen before a feasible
            # path, but guard anyway.
            raise InfeasibleProblemError(
                f"no design sequence with at most {k} changes exists")
        examined = rank
        assignment = ranker.assignment_of(SINK, rank)
        changes = matrices.change_count(assignment,
                                        count_initial_change)
        if changes <= k:
            return RankingResult(assignment=assignment,
                                 cost=entry[0],
                                 change_count=changes,
                                 paths_examined=examined)
        best_infeasible = min(best_infeasible, entry[0])
    raise RankingExhaustedError(
        f"no feasible path within {max_paths} ranked paths",
        paths_examined=examined, best_infeasible_cost=best_infeasible)


class _PathRanker:
    """REA state over one sequence graph."""

    def __init__(self, graph: SequenceGraph):
        self.graph = graph
        self._paths: Dict[Node, List[_Entry]] = {}
        self._candidates: Dict[Node, List[Tuple[float, int, Node, int]]] \
            = {}
        self._seeded: Dict[Node, bool] = {}
        self._tiebreak = 0
        self._init_tree()
        # Deep graphs would otherwise overflow the default recursion
        # limit when the next path deviates near the source.
        needed = 4 * (graph.n_segments + 3) + 100
        if sys.getrecursionlimit() < needed:
            sys.setrecursionlimit(needed)

    # -- public ------------------------------------------------------------

    def path(self, node: Node, rank: int) -> Optional[_Entry]:
        """The rank-th cheapest path to ``node`` (1-based), or None."""
        paths = self._paths.get(node, [])
        while len(paths) < rank:
            if not self._compute_next(node):
                return None
            paths = self._paths[node]
        return paths[rank - 1]

    def assignment_of(self, node: Node, rank: int) -> Tuple[int, ...]:
        """Per-segment configuration indices of a ranked sink path."""
        chain: List[Node] = []
        current: Optional[Node] = node
        current_rank = rank
        while current is not None and current != SOURCE:
            chain.append(current)
            entry = self._paths[current][current_rank - 1]
            current, current_rank = entry[1], entry[2]
        chain.reverse()
        return tuple(n[1] for n in chain if n != SINK)

    # -- internals ----------------------------------------------------------

    def _init_tree(self) -> None:
        """Rank-1 paths for every node: one forward DP sweep."""
        self._paths[SOURCE] = [(0.0, None, 0)]
        graph = self.graph
        previous_stage: List[Node] = [SOURCE]
        for stage in range(graph.n_segments):
            for cfg in range(graph.n_configurations):
                node = (stage, cfg)
                best: Optional[_Entry] = None
                for pred, weight in graph.predecessors(node):
                    pred_cost = self._paths[pred][0][0]
                    total = pred_cost + weight
                    if best is None or total < best[0]:
                        best = (total, pred, 1)
                if best is None:
                    raise DesignError(
                        f"graph node {node} has no predecessors; "
                        f"the sequence graph is malformed")
                self._paths[node] = [best]
            previous_stage = [(stage, c)
                              for c in range(graph.n_configurations)]
        best_sink: Optional[_Entry] = None
        for pred, weight in graph.predecessors(SINK):
            total = self._paths[pred][0][0] + weight
            if best_sink is None or total < best_sink[0]:
                best_sink = (total, pred, 1)
        if best_sink is None:
            raise DesignError("the sink node has no predecessors; "
                              "the sequence graph is malformed")
        self._paths[SINK] = [best_sink]

    def _edge_weight(self, pred: Node, node: Node) -> float:
        for successor, weight in self.graph.successors(pred):
            if successor == node:
                return weight
        raise DesignError(f"no edge {pred} -> {node}")

    def _push(self, node: Node, cost: float, pred: Node,
              rank: int) -> None:
        self._tiebreak += 1
        heapq.heappush(self._candidates.setdefault(node, []),
                       (cost, self._tiebreak, pred, rank))

    def _compute_next(self, node: Node) -> bool:
        """Extend ``paths[node]`` by one entry; False if exhausted."""
        if node == SOURCE:
            return False
        if not self._seeded.get(node, False):
            # Seed with every other predecessor's best path.
            tree_pred = self._paths[node][0][1]
            for pred, weight in self.graph.predecessors(node):
                if pred == tree_pred:
                    continue
                entry = self.path(pred, 1)
                if entry is not None:
                    self._push(node, entry[0] + weight, pred, 1)
            self._seeded[node] = True
        # Extend the most recently found path by its predecessor's
        # next-ranked path.
        last_cost, last_pred, last_rank = self._paths[node][-1]
        if last_pred is not None:
            entry = self.path(last_pred, last_rank + 1)
            if entry is not None:
                weight = self._edge_weight(last_pred, node)
                self._push(node, entry[0] + weight, last_pred,
                           last_rank + 1)
        heap = self._candidates.get(node)
        if not heap:
            return False
        cost, _tie, pred, rank = heapq.heappop(heap)
        self._paths[node].append((cost, pred, rank))
        return True
