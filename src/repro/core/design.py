"""Design sequences — the output of the dynamic design optimizers.

A :class:`DesignSequence` assigns one configuration to every workload
segment, mirroring the paper's ``[C1, ..., Cn]``. It knows its
run-length structure and how to price itself against cost matrices;
its change count is :meth:`CostMatrices.change_count`'s, the one
Definition 1 counter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..errors import DesignError
from .costmatrix import CostMatrices
from .structures import Configuration


@dataclass(frozen=True)
class DesignRun:
    """A maximal stretch of segments sharing one configuration."""

    config: Configuration
    start: int
    end: int  # exclusive

    def __len__(self) -> int:
        return self.end - self.start


class DesignSequence:
    """A dynamic physical design: one configuration per segment.

    Args:
        initial: the starting configuration C0.
        assignments: configuration per segment, in order.
    """

    def __init__(self, initial: Configuration,
                 assignments: Sequence[Configuration]):
        if not assignments:
            raise DesignError("a design sequence needs >= 1 segment")
        self.initial = initial
        self.assignments: Tuple[Configuration, ...] = tuple(assignments)

    def __len__(self) -> int:
        return len(self.assignments)

    def __getitem__(self, i: int) -> Configuration:
        return self.assignments[i]

    def __eq__(self, other) -> bool:
        return (isinstance(other, DesignSequence) and
                other.initial == self.initial and
                other.assignments == self.assignments)

    def __hash__(self) -> int:
        return hash((self.initial, self.assignments))

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    def runs(self) -> List[DesignRun]:
        """Run-length encoding of the assignment."""
        runs: List[DesignRun] = []
        start = 0
        for i in range(1, len(self.assignments) + 1):
            if i == len(self.assignments) or \
                    self.assignments[i] != self.assignments[start]:
                runs.append(DesignRun(self.assignments[start], start, i))
                start = i
        return runs

    # ------------------------------------------------------------------
    # costing / display
    # ------------------------------------------------------------------

    def cost(self, matrices: CostMatrices) -> float:
        """Objective value under the given matrices (the trace's, or
        another workload's): :meth:`CostMatrices.sequence_cost`."""
        return matrices.sequence_cost(self.to_indices(matrices))

    def to_indices(self, matrices: CostMatrices) -> List[int]:
        return [matrices.config_index(c) for c in self.assignments]

    def format_table(self, segment_labels: Optional[Sequence[str]] = None
                     ) -> str:
        """Render runs as an ASCII table (used in example output)."""
        lines = [f"{'segments':>12}  design",
                 f"{'-' * 12}  {'-' * 24}"]
        for run in self.runs():
            if segment_labels is not None:
                label = f"{segment_labels[run.start]}.." \
                        f"{segment_labels[run.end - 1]}"
            else:
                label = f"{run.start}..{run.end - 1}"
            lines.append(f"{label:>12}  {run.config.label}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"<DesignSequence: {len(self)} segments, "
                f"{len(self.runs())} runs>")


def design_from_indices(matrices: CostMatrices,
                        indices: Sequence[int],
                        initial: Configuration) -> DesignSequence:
    """Build a design sequence from configuration column indices."""
    return DesignSequence(
        initial, [matrices.configurations[i] for i in indices])
