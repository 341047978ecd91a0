"""LP-relaxation + rounding: a reference bound, not an advisor path.

``LPAdvisor`` runs the exact k-aware DP, which is faster at every
size the repo runs; verify family 7 keeps this solver as its
reference bound. It relaxes the change-budget constraint in the
Lagrangian way, which for a shortest-path problem with one side
constraint coincides with the LP-relaxation dual bound:

* For a multiplier ``lam >= 0``, charge every counted change edge an
  extra ``lam`` and solve the now-unconstrained sequence graph with
  the ordinary O(n |C|^2) DP (``sequence_graph._stage_dp``). The
  resulting path minimizes ``cost + lam * changes``; its dual value
  ``g(lam) = penalized_cost - lam * k`` is a valid lower bound on the
  constrained optimum for every ``lam``.
* ``changes(lam)`` is non-increasing in ``lam``, so a bisection on
  ``lam`` finds the smallest multiplier whose path is feasible
  (``changes <= k``), keeping the best feasible path seen (the
  incumbent) and the tightest dual bound ``max g(lam)``.
* If the relaxation never lands exactly on k changes (a duality gap),
  the final infeasible path is *rounded* to the budget with the
  paper's sequential merging (:func:`~repro.core.merging.merge_to_k`)
  and the cheaper of (incumbent, rounded) is returned.

The reported ``lower_bound`` and ``gap = cost - lower_bound`` certify
solution quality: the true constrained optimum lies in
``[lower_bound, cost]``. When the unconstrained optimum already fits
the budget (``lam = 0`` feasible) the result is exact and the gap is
zero.

Counting conventions match :mod:`repro.core.kaware`: with
``count_initial_change`` (strict Definition 1) the C0 -> C1 hop is
penalized and counted; without it the first hop is free; a required
final configuration is charged but never penalized nor counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import InfeasibleProblemError
from .costmatrix import CostMatrices
from .merging import merge_to_k
from .sequence_graph import _stage_dp

#: Cap on penalized DP solves across the multiplier search.
MAX_ITERATIONS = 48
#: Relative bracket width at which the bisection stops.
TOLERANCE = 1e-9


@dataclass(frozen=True)
class LPResult:
    """Outcome of the LP-relaxation + rounding solver.

    Attributes:
        assignment: configuration index per phase (feasible: at most k
            changes under the requested counting mode).
        cost: objective value of ``assignment`` (canonical
            :meth:`~repro.core.costmatrix.CostMatrices.sequence_cost`).
        change_count: changes under the requested counting mode.
        lower_bound: best Lagrangian dual value — the constrained
            optimum is provably >= this.
        gap: ``cost - lower_bound`` (0.0 certifies optimality).
        iterations: penalized DP solves performed.
        method: how the returned path was obtained —
            ``"unconstrained"`` (lam = 0 already feasible),
            ``"dual"`` (feasible path from the bisection), or
            ``"dual+merge"`` (rounded by sequential merging).
    """

    assignment: Tuple[int, ...]
    cost: float
    change_count: int
    lower_bound: float
    gap: float
    iterations: int
    method: str


def solve_lp_rounding(matrices: CostMatrices, k: int,
                      count_initial_change: bool = True) -> LPResult:
    """Solve the k-constrained problem by LP-relaxation + rounding.

    No advisor calls it. It is exported from :mod:`repro.core` only
    for the advisor benchmark's ledger, and moves to
    :mod:`repro.verify.reference` once the ledger does without it.

    Args:
        matrices: EXEC/TRANS matrices (with initial/final columns).
        k: maximum number of design changes.
        count_initial_change: whether C0 -> C1 consumes change budget
            (see :mod:`repro.core.kaware`).

    Runtime is O(iterations x n x |C|^2) — independent of k, unlike
    the exact DP's O(min(k, n) x n x |C|^2) table.
    """
    if k < 0:
        raise InfeasibleProblemError(f"change budget k={k} is negative")

    def solve(lam: float):
        assignment, penalized = _stage_dp(matrices, lam,
                                          count_initial_change)
        cost = matrices.sequence_cost(assignment)
        changes = matrices.change_count(assignment,
                                        count_initial_change)
        return assignment, cost, changes, penalized - lam * k

    iterations = 1
    assignment, cost, changes, dual = solve(0.0)
    if changes <= k:
        # The unconstrained optimum fits the budget: provably exact.
        return LPResult(assignment=assignment, cost=cost,
                        change_count=changes, lower_bound=cost,
                        gap=0.0, iterations=iterations,
                        method="unconstrained")

    best_dual = dual
    incumbent: Optional[Tuple[Tuple[int, ...], float, int]] = None
    infeasible = assignment

    # Grow an upper bracket: for a large enough multiplier the DP
    # stops changing altogether (0 changes <= k).
    lo, hi = 0.0, 1.0
    while iterations < MAX_ITERATIONS:
        assignment, cost, changes, dual = solve(hi)
        iterations += 1
        best_dual = max(best_dual, dual)
        if changes <= k:
            if incumbent is None or cost < incumbent[1]:
                incumbent = (assignment, cost, changes)
            break
        infeasible = assignment
        lo = hi
        hi *= 4.0
    else:
        hi = None  # bracket never closed within budget

    while (hi is not None and iterations < MAX_ITERATIONS and
           hi - lo > TOLERANCE * max(1.0, hi)):
        mid = 0.5 * (lo + hi)
        assignment, cost, changes, dual = solve(mid)
        iterations += 1
        best_dual = max(best_dual, dual)
        if changes <= k:
            hi = mid
            if incumbent is None or cost < incumbent[1]:
                incumbent = (assignment, cost, changes)
        else:
            lo = mid
            infeasible = assignment

    # Round the tightest infeasible path down to the budget and keep
    # the cheaper of (incumbent, rounded).
    merged = merge_to_k(matrices, infeasible, k,
                        count_initial_change=count_initial_change)
    method = "dual+merge"
    assignment, cost, changes = (merged.assignment, merged.cost,
                                 merged.change_count)
    if incumbent is not None and incumbent[1] <= cost:
        assignment, cost, changes = incumbent
        method = "dual"
    return LPResult(assignment=tuple(assignment), cost=float(cost),
                    change_count=int(changes),
                    lower_bound=float(best_dual),
                    gap=float(cost - best_dual),
                    iterations=iterations, method=method)
