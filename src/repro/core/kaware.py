"""k-aware sequence graphs — the optimal constrained solver (Section 3).

The paper generalizes sequence graphs by *layering* them: layer l holds
the designs reachable with exactly l configuration changes so far. A
node ``(stage i, layer l, config C)`` has a same-layer edge to
``(i+1, l, C)`` (no change) and edges to ``(i+1, l+1, C')`` for every
``C' != C`` (one more change). With ``k+1`` layers, source-to-sink
paths are exactly the design sequences with at most k changes, and the
optimal constrained design is the shortest such path. A design over n
segments makes at most n changes, so layers above that are never
built: O(n min(k, n) |C|^2).

We solve the layered DAG with a dynamic program over
``dist[layer, config]`` per stage, vectorized with NumPy, with full
parent tracking for path reconstruction. The per-stage change step
runs over TRANS transposed to ``[c, p]`` (the parent argmin reduces the
last, contiguous axis), covers only the source layers that can already
be finite, and walks them in blocks of :data:`_BLOCK` layers through
one reused buffer (DESIGN §9). The pure-Python reference
implementation the property tests compare against is
:func:`repro.verify.reference.reference_constrained`.

One presentation subtlety, resolved here explicitly: Definition 1
counts the step from the given initial design C0 to C1 as a change
(``i`` ranges over 1..n). The paper's *experiments*, however, choose
``k = number of major shifts`` (2) for a design whose initial index
build would already consume one change under the strict count — so the
experimental k evidently does not charge the C0 -> C1 transition. Both
semantics are supported via ``count_initial_change`` (default True =
strict Definition 1; the experiment harness passes False to match the
paper's tables).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..errors import InfeasibleProblemError
from .costmatrix import CostMatrices

_INF = np.inf

#: Source layers per change-step block: a ``(_BLOCK, |C|, |C|)`` float64
#: buffer is 0.6 MB at |C| = 137 and 1.4 MB at 211, so it stays in cache
#: while amortizing the per-call NumPy overhead (DESIGN §9 has the sizing).
_BLOCK = 4


@dataclass(frozen=True)
class ConstrainedResult:
    """Outcome of a k-aware optimization.

    Attributes:
        assignment: configuration index per segment.
        cost: objective value (EXEC + TRANS, incl. final transition).
        change_count: changes under the counting mode used to solve.
        layers_used: the layer the optimal path ends in.
    """

    assignment: Tuple[int, ...]
    cost: float
    change_count: int
    layers_used: int


def solve_constrained(matrices: CostMatrices, k: int,
                      count_initial_change: bool = True
                      ) -> ConstrainedResult:
    """Shortest path through the (k+1)-layer k-aware sequence graph.

    Only ``min(k, hops) + 1`` layers are built, ``hops`` being the
    number of transitions that can count as a change (n segments, or
    n - 1 when C0 -> C1 is free); the result is the same for any larger
    k.

    Args:
        matrices: EXEC/TRANS matrices (with initial/final columns).
        k: maximum number of design changes.
        count_initial_change: whether C0 -> C1 consumes change budget
            (strict Definition 1) or not (the paper's experimental
            convention).

    Raises:
        InfeasibleProblemError: if k < 0, or no design sequence with at
            most k changes reaches the required final configuration.
    """
    if k < 0:
        raise InfeasibleProblemError(f"change budget k={k} is negative")
    exec_matrix, trans = matrices.exec_matrix, matrices.trans_matrix
    n_seg, n_cfg = exec_matrix.shape
    # A design makes at most one change per hop, so layers above the
    # hop count stay infinite and the result equals the one at the cap.
    n_layers = min(k, n_seg if count_initial_change else n_seg - 1) + 1
    # change[c, p] = TRANS(p -> c) with an infinite diagonal: "change"
    # edges must move to a different configuration (a same-config hop
    # is the stay edge), and the parent argmin runs over the last axis.
    change = trans.T.copy()
    np.fill_diagonal(change, _INF)

    dist = np.full((n_layers, n_cfg), _INF)
    if count_initial_change:
        dist[0, matrices.initial_index] = \
            exec_matrix[0, matrices.initial_index]
        if n_layers > 1:
            dist[1] = change[:, matrices.initial_index] + exec_matrix[0]
    else:
        dist[0] = trans[matrices.initial_index] + exec_matrix[0]

    # Parent bookkeeping: for stage i, layer l, config c we record the
    # predecessor config (same layer and config when "stay", the
    # prefill). int32 halves the solver's dominant table; config
    # indices are bounded by |C| < 2**31.
    parent_cfg = np.empty((n_seg, n_layers, n_cfg), dtype=np.int32)
    parent_cfg[...] = np.arange(n_cfg, dtype=np.int32)
    parent_stay = np.ones((n_seg, n_layers, n_cfg), dtype=bool)
    parent_cfg[0] = matrices.initial_index
    parent_stay[0] = False

    new_dist = np.empty_like(dist)
    n_block = min(_BLOCK, n_layers - 1)
    reach = np.empty((n_block, n_cfg, n_cfg),
                     dtype=np.result_type(change, dist))
    best = np.empty((n_block, n_cfg), dtype=np.intp)
    # Flat offset of row [l, c] in the block: the argmin gather is one
    # ``take`` on the raveled buffer.
    rows = np.arange(n_block * n_cfg).reshape(n_block, n_cfg) * n_cfg
    # Entering stage i, dist holds segments 0..i-1: i hops so far, the
    # first free unless counted, so layers above i - lag are infinite
    # and the change step skips them.
    lag = 0 if count_initial_change else 1
    for i in range(1, n_seg):
        np.add(dist, exec_matrix[i], out=new_dist)          # stay
        band = min(i - lag, n_layers - 2) + 1
        for lo in range(0, band, _BLOCK):
            hi = min(lo + _BLOCK, band)
            # change: from layer l, any other config, into layer l+1.
            block, parent = reach[:hi - lo], best[:hi - lo]
            np.add(change, dist[lo:hi, None, :], out=block)  # [l, c, p]
            np.argmin(block, axis=2, out=parent)
            change_cost = block.take(parent + rows[:hi - lo])
            change_cost += exec_matrix[i]
            better = change_cost < new_dist[lo + 1:hi + 1]
            np.copyto(new_dist[lo + 1:hi + 1], change_cost, where=better)
            np.copyto(parent_stay[i, lo + 1:hi + 1], False, where=better)
            np.copyto(parent_cfg[i, lo + 1:hi + 1], parent, where=better)
        dist, new_dist = new_dist, dist

    final = dist
    if matrices.final_index is not None:
        final = dist + trans[:, matrices.final_index][None, :]
    if not np.isfinite(final).any():
        raise InfeasibleProblemError(
            f"no design sequence with at most {k} changes is feasible")
    flat = int(np.argmin(final))
    layer, cfg = divmod(flat, n_cfg)
    cost = float(final[layer, cfg])

    assignment = _reconstruct(parent_cfg, parent_stay, layer, cfg)
    return ConstrainedResult(
        assignment=assignment, cost=cost,
        change_count=matrices.change_count(assignment,
                                           count_initial_change),
        layers_used=layer)


def _reconstruct(parent_cfg: np.ndarray, parent_stay: np.ndarray,
                 layer: int, cfg: int) -> Tuple[int, ...]:
    n_seg = parent_cfg.shape[0]
    assignment = [cfg]
    for i in range(n_seg - 1, 0, -1):
        stay = bool(parent_stay[i, layer, cfg])
        previous = int(parent_cfg[i, layer, cfg])
        if not stay:
            layer -= 1
        cfg = previous
        assignment.append(cfg)
    assignment.reverse()
    return tuple(assignment)


def constrained_invariant_violations(
        matrices: CostMatrices, result: ConstrainedResult, k: int,
        count_initial_change: bool = True,
        size_fn: Optional[Callable[[int], int]] = None,
        space_bound_bytes: Optional[int] = None) -> List[str]:
    """Invariant hook: everything a constrained solution must satisfy.

    Returns human-readable violation descriptions (empty = all good).
    The verification harness (:mod:`repro.verify`) runs this after
    every solve; tests can call it directly on any
    :class:`ConstrainedResult`.

    Checked: assignment length; reported cost equals the canonical
    :meth:`CostMatrices.sequence_cost` of the assignment bit-for-bit
    (summation order is fixed across solvers); change count under the
    requested counting mode never exceeds ``k`` and matches the
    reported count; with ``size_fn`` (configuration column index ->
    bytes) and a space bound, ``SIZE(C_i) <= b`` at every stage.
    """
    violations: List[str] = []
    assignment = result.assignment
    if len(assignment) != matrices.n_segments:
        violations.append(
            f"assignment length {len(assignment)} != "
            f"{matrices.n_segments} segments")
        return violations
    canonical = matrices.sequence_cost(assignment)
    if canonical != result.cost:
        violations.append(
            f"reported cost {result.cost!r} != canonical "
            f"sequence cost {canonical!r}")
    changes = matrices.change_count(assignment, count_initial_change)
    if changes != result.change_count:
        violations.append(
            f"reported change count {result.change_count} != "
            f"recomputed {changes}")
    if changes > k:
        violations.append(
            f"{changes} changes exceed the budget k={k}")
    if k == 0 and count_initial_change and any(
            cfg != matrices.initial_index for cfg in assignment):
        violations.append(
            "k=0 with strict counting must stay on the initial "
            "configuration")
    if size_fn is not None and space_bound_bytes is not None:
        for i, cfg in enumerate(assignment):
            size = size_fn(cfg)
            if size > space_bound_bytes:
                violations.append(
                    f"SIZE(C_{i}) = {size} exceeds the space bound "
                    f"{space_bound_bytes}")
                break
    return violations
