"""GREEDY-SEQ-style candidate reduction (Section 4.1).

The exact solvers are exponential in the number of candidate structures
m because they consider all 2^m configurations per stage. Agrawal et
al.'s GREEDY-SEQ instead identifies a *small* set of promising
configurations — O(mn) of them — and runs the shortest-path machinery
on that reduced set. The paper reuses the idea unchanged for the
constrained problem: generate candidates the GREEDY-SEQ way, then
search the k-aware graph built over them (O(k n^3 m^2) overall).

Our reimplementation (the original is described, not published as
code):

1. For every segment, find its *locally best* configuration among the
   empty configuration and each single-index configuration — m+1
   what-if calls per segment.
2. Union consecutive distinct local bests — these "merged"
   configurations let the path linger across a shift instead of paying
   a transition (the stabilizing ingredient of GREEDY-SEQ).
3. Keep everything within the space bound, dedupe, and always include
   the initial (and required final) configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..errors import DesignError
from ..sqlengine.index import IndexDef, structure_sort_key
from ..workload.segmentation import Segment
from .costmatrix import CostProvider
from .problem import ProblemInstance
from .structures import Configuration, EMPTY_CONFIGURATION


@dataclass(frozen=True)
class GreedyCandidates:
    """The reduced configuration space plus provenance.

    Attributes:
        configurations: the reduced candidate set, in stable order.
        per_segment_best: locally best configuration per segment.
        n_explored: what-if evaluations performed.
    """

    configurations: Tuple[Configuration, ...]
    per_segment_best: Tuple[Configuration, ...]
    n_explored: int


def greedy_seq_candidates(
        segments: Sequence[Segment],
        candidate_indexes: Sequence[IndexDef],
        provider: CostProvider,
        initial: Configuration = EMPTY_CONFIGURATION,
        final: Optional[Configuration] = None,
        space_bound_bytes: Optional[int] = None) -> GreedyCandidates:
    """Generate the reduced configuration set.

    Args:
        segments: the workload units.
        candidate_indexes: the m candidate structures.
        provider: cost provider for the local EXEC probes.
        initial: C0 (always kept in the candidate set, even above the
            space bound — it already exists; the solvers may only
            transition away from it).
        final: required final configuration, if any (kept too).
        space_bound_bytes: *generated* configurations above the bound
            are dropped; the initial configuration is exempt.

    Raises:
        DesignError: if the required final configuration violates the
            space bound (the problem is then infeasible — unlike C0,
            the final design must actually be built within b).
    """
    singles = [EMPTY_CONFIGURATION] + \
        [Configuration({d})
         for d in sorted(set(candidate_indexes),
                         key=structure_sort_key)]
    singles = [c for c in singles if _fits(c, provider, space_bound_bytes)]
    n_explored = 0
    per_segment_best: List[Configuration] = []
    for segment in segments:
        best, best_cost = None, float("inf")
        for config in singles:
            cost = provider.exec_cost(segment, config)
            n_explored += 1
            if cost < best_cost:
                best, best_cost = config, cost
        if best is None:
            raise DesignError(
                "no candidate configuration could be costed for "
                f"segment {segment!r}")
        per_segment_best.append(best)

    candidates: List[Configuration] = []

    def _add(config: Configuration, required: bool = False) -> None:
        # The space-bound filter applies only to *generated*
        # candidates: the initial and required final configurations
        # are always kept (the docstring's contract — dropping them
        # breaks restrict_configurations downstream).
        if config in candidates:
            return
        if not required and not _fits(config, provider,
                                      space_bound_bytes):
            return
        candidates.append(config)

    _add(initial, required=True)
    _add(EMPTY_CONFIGURATION)
    if final is not None:
        if not _fits(final, provider, space_bound_bytes):
            raise DesignError(
                f"required final configuration {final} exceeds the "
                f"space bound of {space_bound_bytes} bytes")
        _add(final, required=True)
    for config in per_segment_best:
        _add(config)
    # Union candidates across each shift (consecutive distinct bests).
    for before, after in zip(per_segment_best, per_segment_best[1:]):
        if before != after:
            _add(before.union(after))

    return GreedyCandidates(configurations=tuple(candidates),
                            per_segment_best=tuple(per_segment_best),
                            n_explored=n_explored)


def reduce_problem(problem: ProblemInstance, provider: CostProvider,
                   candidate_indexes: Optional[Sequence[IndexDef]] = None
                   ) -> Tuple[ProblemInstance, GreedyCandidates]:
    """Apply GREEDY-SEQ reduction to a problem instance.

    When ``candidate_indexes`` is omitted, the indexes appearing in the
    problem's configuration space are used as the m structures.
    """
    if candidate_indexes is None:
        seen = set()
        for config in problem.configurations:
            seen.update(config.indexes)
        candidate_indexes = sorted(seen, key=structure_sort_key)
    greedy = greedy_seq_candidates(
        problem.segments, candidate_indexes, provider,
        initial=problem.initial, final=problem.final,
        space_bound_bytes=problem.space_bound_bytes)
    return problem.restrict_configurations(greedy.configurations), greedy


def _fits(config: Configuration, provider: CostProvider,
          space_bound_bytes: Optional[int]) -> bool:
    if space_bound_bytes is None:
        return True
    return provider.size_bytes(config) <= space_bound_bytes
