"""Problem instances for (constrained) dynamic physical design.

Definition 1 of the paper: given a statement sequence, an initial
design ``C0``, a space bound ``b`` and a change budget ``k``, find a
design sequence with ``SIZE(Ci) <= b`` and at most ``k`` changes that
minimizes total execution + transition cost.

:class:`ProblemInstance` packages those inputs together with the
candidate configuration space. Candidates can be given explicitly (the
paper's 7-configuration experiment) or enumerated from candidate
indexes subject to the space bound.

The sequence axis holds *cost units*: raw
:class:`~repro.workload.segmentation.Segment` s (the paper experiments,
which replay them on the live database) or the
:class:`~repro.workload.summary.PhaseSummary` s of a streamed
:class:`~repro.workload.summary.WorkloadSummary` (every trace file —
:func:`problem_from_summary`). Costing folds both through
:func:`~repro.workload.summary.atoms_of` (Σ weight × atom cost in
first-appearance order), so the two cost bit-identically and only the
costing work differs: it scales with distinct statements.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import InfeasibleProblemError
from ..sqlengine.index import IndexDef, structure_sort_key
from ..workload.summary import (CostUnit, WorkloadSummary,
                                summarize_segments)
from .structures import Configuration, EMPTY_CONFIGURATION

SizeFn = Callable[[Configuration], int]


@dataclass(frozen=True)
class ProblemInstance:
    """A constrained dynamic physical design problem.

    Attributes:
        segments: cost units between which the design may change
            (statements, blocks, summarized phases). The design
            sequence produced has one configuration per unit.
        configurations: candidate configurations (already filtered by
            the space bound). Always contains the initial configuration.
        initial: the starting design C0.
        k: maximum number of design changes; ``None`` = unconstrained.
        space_bound_bytes: the bound b used when the candidate space
            was enumerated (informational once enumeration happened).
        final: optional required final configuration (the paper's
            destination node; the experiments pin it to empty).
    """

    segments: Tuple[CostUnit, ...]
    configurations: Tuple[Configuration, ...]
    initial: Configuration
    k: Optional[int] = None
    space_bound_bytes: Optional[int] = None
    final: Optional[Configuration] = None

    def __post_init__(self) -> None:
        if not self.segments:
            raise InfeasibleProblemError("workload has no segments")
        if not self.configurations:
            raise InfeasibleProblemError("no candidate configurations")
        if self.k is not None and self.k < 0:
            raise InfeasibleProblemError(
                f"change budget k must be >= 0, got {self.k}")
        if self.initial not in self.configurations:
            object.__setattr__(
                self, "configurations",
                (self.initial,) + tuple(self.configurations))
        if self.final is not None and \
                self.final not in self.configurations:
            raise InfeasibleProblemError(
                "required final configuration is not a candidate")
        # Note: a required final configuration is modeled as the
        # destination node beyond stage n (paper, Section 3), so the
        # transition into it is charged but never counts against k.

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    @property
    def n_configurations(self) -> int:
        return len(self.configurations)

    @property
    def n_statements(self) -> int:
        """Raw statements the sequence axis represents."""
        return sum(len(unit) for unit in self.segments)

    def with_k(self, k: Optional[int]) -> "ProblemInstance":
        """The same instance under a different change budget."""
        return replace(self, k=k)

    def restrict_configurations(
            self, configurations: Sequence[Configuration]
    ) -> "ProblemInstance":
        """The same instance over a reduced candidate set (used by the
        GREEDY-SEQ style advisors)."""
        return replace(self, configurations=tuple(configurations))


def problem_from_summary(summary: WorkloadSummary,
                         configurations: Sequence[Configuration],
                         initial: Configuration,
                         k: Optional[int] = None,
                         space_bound_bytes: Optional[int] = None,
                         final: Optional[Configuration] = None
                         ) -> ProblemInstance:
    """Build the problem over a workload summary's phases."""
    return ProblemInstance(
        segments=tuple(summary.phases),
        configurations=tuple(configurations), initial=initial, k=k,
        space_bound_bytes=space_bound_bytes, final=final)


def summarize_problem(problem: ProblemInstance) -> ProblemInstance:
    """Compress a problem over raw segments phase-for-phase.

    The result costs bit-identically to ``problem`` (same atoms per
    phase, same accumulation order) while the costing work scales
    with distinct statements — verify family 7 checks exactly this.
    """
    return replace(
        problem, segments=summarize_segments(problem.segments).phases)


def enumerate_configurations(
        candidates: Sequence[IndexDef],
        size_fn: Optional[SizeFn] = None,
        space_bound_bytes: Optional[int] = None,
        max_indexes: Optional[int] = None,
        include_empty: bool = True) -> List[Configuration]:
    """All subsets of ``candidates`` within the space bound.

    Args:
        candidates: candidate index definitions (the paper's m
            structures; the space has up to 2^m configurations).
        size_fn: configuration -> bytes; required if a bound is given.
        space_bound_bytes: the paper's b; configurations larger than
            this are excluded.
        max_indexes: optional cap on indexes per configuration (the
            paper's experiments use 1).
        include_empty: include the empty configuration.

    Raises:
        InfeasibleProblemError: if the bound excludes every candidate
            configuration (including the empty one).
    """
    if space_bound_bytes is not None and size_fn is None:
        raise InfeasibleProblemError(
            "a space bound requires a size function")
    unique = sorted(set(candidates), key=structure_sort_key)
    limit = len(unique) if max_indexes is None else \
        min(max_indexes, len(unique))
    out: List[Configuration] = []
    if include_empty:
        out.append(EMPTY_CONFIGURATION)
    for r in range(1, limit + 1):
        for subset in combinations(unique, r):
            config = Configuration(subset)
            if space_bound_bytes is not None and \
                    size_fn(config) > space_bound_bytes:
                continue
            out.append(config)
    if not out:
        raise InfeasibleProblemError(
            f"the space bound {space_bound_bytes} excludes every "
            f"configuration")
    return out
