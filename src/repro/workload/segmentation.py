"""Workload segmentation.

The design algorithms operate over a sequence of *segments* — the units
between which the physical design may change. A segment can be a single
statement (the paper's problem definition, a block of size 1) or a
fixed-size block (the presentation granularity of the paper's Table 2).

Segmentation is streaming: :func:`iter_segments_by_count` consumes any
statement iterable — a materialized
:class:`~repro.workload.model.Workload`, a generator, or a trace file
being read line by line — holding at most one block of statements in
memory. :func:`segment_by_count` is a thin wrapper over the iterator,
so the edge cases (empty trace, single statement, final partial block)
are handled once, without list indexing.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import WorkloadError
from .model import Statement


@dataclass(frozen=True)
class Segment:
    """A contiguous slice of a workload.

    Attributes:
        statements: the statements in the segment, in order.
        start: index of the first statement in the original workload.
        tag: dominant tag of the segment (None if untagged/mixed).
    """

    statements: Tuple[Statement, ...]
    start: int
    tag: Optional[str] = None

    @property
    def end(self) -> int:
        """One past the index of the last statement."""
        return self.start + len(self.statements)

    def __len__(self) -> int:
        return len(self.statements)

    def __iter__(self) -> Iterator[Statement]:
        return iter(self.statements)

    def __repr__(self) -> str:
        tag = f", tag={self.tag!r}" if self.tag else ""
        return f"Segment([{self.start}:{self.end}]{tag})"


def check_block_size(block_size) -> int:
    """``block_size`` as an ``int`` >= 1, or a :class:`WorkloadError`.

    Numpy integers are accepted; a float or a bool is refused rather
    than truncated — a running count never equals 2.5, so a fractional
    block would silently make the whole stream one block.
    """
    if (isinstance(block_size, bool)
            or not isinstance(block_size, numbers.Integral)
            or block_size < 1):
        raise WorkloadError(
            f"block_size must be an int >= 1, got {block_size!r}")
    return int(block_size)


def iter_segments_by_count(statements: Iterable[Statement],
                           block_size: int) -> Iterator[Segment]:
    """Stream fixed-size blocks from any statement iterable.

    Only the current block is buffered, so this works on traces far
    larger than memory. An empty input yields no segments; a final
    partial block (including a single-statement trace) is emitted as a
    well-formed short segment.
    """
    block_size = check_block_size(block_size)
    block: List[Statement] = []
    start = 0
    for statement in statements:
        block.append(statement)
        if len(block) == block_size:
            yield Segment(statements=tuple(block), start=start,
                          tag=_dominant_tag(block))
            start += len(block)
            block = []
    if block:
        yield Segment(statements=tuple(block), start=start,
                      tag=_dominant_tag(block))


def segment_by_count(workload: Iterable[Statement],
                     block_size: int) -> List[Segment]:
    """Split into fixed-size blocks (last block may be short)."""
    return list(iter_segments_by_count(workload, block_size))


def _dominant_tag(statements: Sequence[Statement]) -> Optional[str]:
    counts: dict = {}
    for statement in statements:
        if statement.tag is not None:
            counts[statement.tag] = counts.get(statement.tag, 0) + 1
    if not counts:
        return None
    return max(counts, key=lambda t: counts[t])
