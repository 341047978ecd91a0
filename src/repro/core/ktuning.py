"""Choosing the change budget k — the paper's first open question.

"How should k be chosen?" (Section 2; revisited in the conclusion).
The paper offers domain knowledge (count the anticipated fluctuations)
and leaves the general case open. This module implements two general
strategies:

* **Cost-curve knee** (:func:`knee_k`): sweep k, get the optimal
  constrained cost per k (non-increasing), and pick the knee — the
  point after which extra changes stop buying much. This needs only
  the trace itself.

* **Validation against variations** (:func:`validated_k`): the direct
  operationalization of the paper's "representative trace" framing.
  For each k, recommend a design from the trace, then price it on a
  set of *variations* of the trace (see
  :mod:`repro.workload.perturb`); pick the k with the best mean
  validation cost. Overfit designs (large k) lose here exactly the
  way W1's unconstrained design loses on W2/W3 in Figure 3.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import DesignError
from ..workload.segmentation import segment_by_count
from .costmatrix import (CostMatrices, CostProvider,
                         build_cost_matrices)
from .design import DesignSequence, design_from_indices
from .kaware import solve_constrained
from .problem import ProblemInstance
from .sequence_graph import solve_unconstrained


@dataclass(frozen=True)
class KSweepResult:
    """Optimal constrained cost per k on the training trace.

    Attributes:
        ks: the budgets swept (ascending).
        costs: optimal cost per budget (non-increasing).
        unconstrained_cost: cost at k = infinity.
        unconstrained_changes: the l of the unconstrained optimum —
            sweeping beyond it is pointless.
    """

    ks: Tuple[int, ...]
    costs: Tuple[float, ...]
    unconstrained_cost: float
    unconstrained_changes: int


def _budgets(ks: Optional[Sequence[int]]) -> Optional[List[int]]:
    """``ks`` as sorted distinct budgets (``None`` stays ``None``: the
    caller's default range). Raises :class:`DesignError` for an empty
    list and for any budget that is not a non-negative integer — a
    float or a bool is refused rather than truncated."""
    if ks is None:
        return None
    ks = list(ks)
    if not ks:
        raise DesignError("no budgets given: ks is empty")
    for k in ks:
        if isinstance(k, bool) or not isinstance(k, numbers.Integral):
            raise DesignError(f"budget {k!r} is not an integer")
        if k < 0:
            raise DesignError("budgets must be non-negative")
    return sorted(set(int(k) for k in ks))


def sweep_k(matrices: CostMatrices,
            ks: Optional[Sequence[int]] = None,
            count_initial_change: bool = True) -> KSweepResult:
    """Solve the constrained problem for every k in ``ks`` (default:
    0..l, where l is the unconstrained change count). An empty ``ks``
    or a budget that is not a non-negative integer raises
    :class:`DesignError`."""
    ks = _budgets(ks)
    unconstrained = solve_unconstrained(matrices)
    l_changes = matrices.change_count(unconstrained.assignment,
                                      count_initial_change)
    if ks is None:
        ks = range(l_changes + 1)
    costs = [solve_constrained(matrices, k, count_initial_change).cost
             for k in ks]
    return KSweepResult(ks=tuple(ks), costs=tuple(costs),
                        unconstrained_cost=unconstrained.cost,
                        unconstrained_changes=l_changes)


def knee_k(sweep: KSweepResult,
           min_relative_gain: float = 0.0) -> int:
    """The knee of the cost-vs-k curve, by maximum chord distance.

    Normalize both axes to [0, 1], draw the chord from (k_min, cost)
    to (k_max, cost), and return the k whose point lies furthest
    *below* the chord — the standard "kneedle" criterion, robust to
    plateaus before the cliff. Degenerate curves: a flat curve returns
    the smallest k (changes buy nothing); a perfectly linear curve
    returns the largest (every change keeps paying off equally).

    ``min_relative_gain`` optionally requires the knee's cumulative
    gain to cover at least that fraction of the total gain; points
    failing it are skipped. When no point has a kneedle score (all lie
    on or above the chord), the fallback is explicit: the smallest k
    meeting the cumulative-gain gate, else the largest k — never an
    accidental index 0 from ``argmax`` over all ``-inf``.
    """
    if len(sweep.ks) == 1:
        return sweep.ks[0]
    costs = np.asarray(sweep.costs, dtype=float)
    ks = np.asarray(sweep.ks, dtype=float)
    total_gain = costs[0] - costs[-1]
    if total_gain <= 0:
        return sweep.ks[0]
    x = (ks - ks[0]) / (ks[-1] - ks[0])
    y = (costs - costs[-1]) / total_gain          # 1 -> 0
    chord = 1.0 - x                               # straight decline
    below = chord - y                             # distance under it
    eligible = np.ones(len(sweep.ks), dtype=bool)
    if min_relative_gain > 0:
        cumulative = (costs[0] - costs) / total_gain
        eligible = cumulative >= min_relative_gain
        if not eligible.any():
            # The gate filtered every point; argmax over an all
            # -inf array would silently pick index 0.
            return sweep.ks[-1]
        below = np.where(eligible, below, -np.inf)
    best = int(np.argmax(below))
    if below[best] <= 1e-12:
        # No knee: nothing sits meaningfully under the chord. Prefer
        # the smallest budget that still clears the cumulative-gain
        # gate; without a gate, every change keeps paying off equally,
        # so take the largest.
        if min_relative_gain > 0:
            return sweep.ks[int(np.argmax(eligible))]
        return sweep.ks[-1]
    return sweep.ks[best]


@dataclass
class ValidatedKResult:
    """Outcome of validation-based k selection.

    Attributes:
        best_k: the chosen budget.
        ks: budgets evaluated.
        training_costs: optimal cost of each k's design on the trace.
        validation_costs: mean cost of each k's design across the
            variation workloads.
        designs: the design recommended per k (from the trace).
    """

    best_k: int
    ks: List[int]
    training_costs: List[float]
    validation_costs: List[float]
    designs: Dict[int, DesignSequence]


def validated_k(problem: ProblemInstance, provider: CostProvider,
                variations: Sequence[object], block_size: int,
                ks: Optional[Sequence[int]] = None,
                count_initial_change: bool = True
                ) -> ValidatedKResult:
    """Pick k by validating trace-derived designs on trace variations.

    For each candidate k: solve the constrained problem on the trace,
    then price the *same design* (aligned block-by-block) on every
    variation workload; choose the k with the lowest mean validation
    cost. Ties break toward the smaller (less overfit) k.

    Args:
        problem: the training problem (segmented or summarized).
        provider: cost provider (shared across trace and variations).
        variations: similar-but-not-identical workloads — raw
            :class:`~repro.workload.model.Workload` s or compressed
            :class:`~repro.workload.summary.WorkloadSummary` s (the
            two may be mixed); each must yield the same number of
            blocks/phases as the training problem.
        block_size: segmentation used for raw variation workloads
            (summaries carry their own phase boundaries).
        ks: candidate budgets (default 0..l), checked as in
            :func:`sweep_k`.
    """
    ks = _budgets(ks)
    matrices = build_cost_matrices(problem, provider)
    unconstrained = solve_unconstrained(matrices)
    l_changes = matrices.change_count(unconstrained.assignment,
                                      count_initial_change)
    if ks is None:
        ks = range(l_changes + 1)

    training_costs: List[float] = []
    designs: Dict[int, DesignSequence] = {}
    for k in ks:
        result = solve_constrained(matrices, k, count_initial_change)
        designs[k] = design_from_indices(matrices, result.assignment,
                                        problem.initial)
        training_costs.append(result.cost)

    # Price every k's design on every variation: one CostMatrices per
    # variation over the configurations the designs actually use (plus
    # initial/final), then the one pricing fold.
    used = [problem.initial]
    if problem.final is not None:
        used.append(problem.final)
    for design in designs.values():
        used.extend(design.assignments)
    used = tuple(dict.fromkeys(used))
    variation_matrices: List[CostMatrices] = []
    for variation in variations:
        if hasattr(variation, "phases"):  # a WorkloadSummary
            segments = tuple(variation.phases)
        else:
            segments = tuple(segment_by_count(variation, block_size))
        if len(segments) != problem.n_segments:
            raise DesignError(
                f"variation {variation.name!r} has {len(segments)} "
                f"blocks, trace has {problem.n_segments}")
        variation_matrices.append(build_cost_matrices(
            replace(problem, segments=segments, configurations=used),
            provider))
    validation_costs = [
        float(np.mean([designs[k].cost(variant)
                       for variant in variation_matrices]))
        for k in ks]
    best_index = int(np.argmin(validation_costs))
    # Prefer the smallest k within a hair of the best. The tolerance
    # needs an absolute floor: a purely relative bound collapses when
    # the best validation cost is 0 (nothing but exact zeros would
    # tie, so a near-zero smaller k loses to a zero larger k).
    best_value = validation_costs[best_index]
    for i, value in enumerate(validation_costs):
        if math.isclose(value, best_value, rel_tol=1e-9,
                        abs_tol=1e-12):
            best_index = i
            break
    return ValidatedKResult(best_k=ks[best_index], ks=list(ks),
                            training_costs=training_costs,
                            validation_costs=validation_costs,
                            designs=designs)
