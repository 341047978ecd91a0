"""Hybrid constrained optimizer (suggested by the paper's Section 6.4).

Figure 4 shows the two constrained techniques scaling in opposite
directions: the k-aware graph's runtime grows ~linearly with k (more
layers), while sequential merging's runtime *falls* with k (fewer
merge steps from the unconstrained solution's l changes down to k).
The paper concludes a hybrid that switches between them "will be an
appropriate means of generating constrained designs" — this module is
that hybrid.

The switch uses explicit work estimates derived from the two
algorithms' complexity terms:

* k-aware graph: ``(k + 1) * n * |C|^2`` DP relaxations,
* merging: solve unconstrained first (``n * |C|^2``), then
  ``(l - k)`` steps of ``O(runs * |C|)`` pair evaluations.

The unconstrained solve is shared: if it already satisfies k, the
hybrid returns it without further work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..errors import InfeasibleProblemError
from .costmatrix import CostMatrices
from .kaware import solve_constrained
from .merging import merge_to_k
from .sequence_graph import solve_unconstrained


@dataclass(frozen=True)
class HybridResult:
    """Outcome of the hybrid solver.

    Attributes:
        assignment: configuration index per segment.
        cost: objective value.
        change_count: changes under the counting mode used.
        method: which technique produced the design ("unconstrained",
            "kaware" or "merging").
        estimated_graph_ops / estimated_merge_ops: the work estimates
            that drove the choice.
    """

    assignment: Tuple[int, ...]
    cost: float
    change_count: int
    method: str
    estimated_graph_ops: float
    estimated_merge_ops: float


def solve_hybrid(matrices: CostMatrices, k: int,
                 count_initial_change: bool = True) -> HybridResult:
    """Solve the constrained problem via whichever technique the raw
    work estimates favor (a tie goes to the optimal k-aware graph).

    Args:
        matrices: EXEC/TRANS matrices.
        k: change budget.
        count_initial_change: change-counting convention (see
            :mod:`.kaware`).
    """
    if k < 0:
        raise InfeasibleProblemError(f"change budget k={k} is negative")
    n_seg = matrices.n_segments
    n_cfg = matrices.n_configurations

    unconstrained = solve_unconstrained(matrices)
    l_changes = matrices.change_count(unconstrained.assignment,
                                      count_initial_change)
    if l_changes <= k:
        return HybridResult(
            assignment=unconstrained.assignment,
            cost=unconstrained.cost, change_count=l_changes,
            method="unconstrained",
            estimated_graph_ops=0.0, estimated_merge_ops=0.0)

    graph_ops = float((k + 1) * n_seg * n_cfg * n_cfg)
    # Merging: (l - k) steps, each scanning ~l runs x |C| replacements.
    merge_ops = float((l_changes - k) * max(l_changes, 1) * n_cfg)

    if graph_ops <= merge_ops:
        result = solve_constrained(matrices, k, count_initial_change)
        return HybridResult(
            assignment=result.assignment, cost=result.cost,
            change_count=result.change_count, method="kaware",
            estimated_graph_ops=graph_ops,
            estimated_merge_ops=merge_ops)
    merged = merge_to_k(matrices, list(unconstrained.assignment), k,
                        count_initial_change)
    return HybridResult(
        assignment=merged.assignment, cost=merged.cost,
        change_count=merged.change_count, method="merging",
        estimated_graph_ops=graph_ops,
        estimated_merge_ops=merge_ops)
