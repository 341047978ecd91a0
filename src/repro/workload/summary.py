"""Compressed workload summaries — the advisor stack's scalable IR.

The paper formulates constrained dynamic design over the raw statement
sequence, which ties advisor runtime to trace length. CoPhy-style
atomic decomposition shows the same problem only depends on *distinct*
statements and their multiplicities: EXEC(phase, config) =
Σ weight(atom) × cost(atom, config). This module provides that
representation:

* :class:`PhaseSummary` — one design phase: its atoms (distinct
  statements, keyed by SQL text, with their occurrence counts) as two
  columns in first-appearance order, plus the raw position/length/tag
  bookkeeping a :class:`~repro.workload.segmentation.Segment` would
  carry.
* :class:`WorkloadSummary` — the phase sequence for a whole trace.

Summaries are built by **streaming**: :func:`iter_phases` (and
:func:`summarize_statements`, which collects its phases) consumes any
statement iterable (a generator, a trace file being read line by line)
holding only the current phase's atom table in memory — never the
statement list. The atom table is bounded by the number of
distinct SQL texts, which for generated point-query workloads is the
value-domain size, not the trace length.

Bit-identity contract: every costing path accumulates EXEC as a
left-fold of ``weight × unit`` over atoms in first-appearance order
(see :func:`atoms_of`). Because :func:`summarize_segment` produces
atoms in exactly that order, costing a summary is bit-identical to
costing the raw statement list — verified by property tests and
verify family 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import attrgetter
from typing import Dict, Iterable, Iterator, Optional, Tuple, Union

from ..errors import WorkloadError
from .model import Statement
from .segmentation import Segment, check_block_size


_sql = attrgetter("sql")


@dataclass(frozen=True)
class PhaseSummary:
    """One design phase of a summarized trace.

    Quacks like a :class:`~repro.workload.segmentation.Segment` for
    position bookkeeping (``start``/``end``/``len``/``tag``) but holds
    its atoms as two columns instead of the statement list.
    Deliberately *not* iterable over statements — costing code must go
    through :func:`atoms_of` so the weighted accumulation stays
    explicit.

    Attributes:
        statements: one representative per distinct SQL text, in
            first-appearance order — the text's first occurrence,
            whose tag is kept.
        weights: how many times each text occurred in the phase.
        start: index of the phase's first statement in the raw trace.
        length: raw statement count summarized (= Σ weights).
        tag: dominant tag of the phase (None if untagged).

    Raises:
        WorkloadError: the columns differ in length, a weight is not a
            positive ``int``, an SQL text repeats, or the weights do
            not sum to ``length``.
    """

    statements: Tuple[Statement, ...]
    weights: Tuple[int, ...]
    start: int
    length: int
    tag: Optional[str] = None

    def __post_init__(self) -> None:
        # Whole-column checks (C loops): every fold pays them.
        n = len(self.statements)
        if len(self.weights) != n:
            raise WorkloadError(
                f"{n} statements but {len(self.weights)} weights")
        if n and (set(map(type, self.weights)) != {int}
                  or min(self.weights) < 1):
            raise WorkloadError("atom weights must be positive ints")
        if len(set(map(_sql, self.statements))) != n:
            raise WorkloadError("an SQL text repeats among the atoms")
        total = sum(self.weights)
        if total != self.length:
            raise WorkloadError(
                f"phase length {self.length} != sum of atom weights "
                f"{total}")

    @property
    def end(self) -> int:
        """One past the index of the last raw statement."""
        return self.start + self.length

    @property
    def n_atoms(self) -> int:
        return len(self.statements)

    def __len__(self) -> int:
        """Raw statements represented (not the atom count)."""
        return self.length

    def __repr__(self) -> str:
        tag = f", tag={self.tag!r}" if self.tag else ""
        return (f"PhaseSummary([{self.start}:{self.end}], "
                f"{self.n_atoms} atoms{tag})")


class WorkloadSummary:
    """A summarized trace: the sequence of phase summaries.

    Args:
        phases: the phases, in trace order.
        name: optional workload name carried over from the source.
    """

    def __init__(self, phases: Iterable[PhaseSummary],
                 name: Optional[str] = None):
        self.phases: Tuple[PhaseSummary, ...] = tuple(phases)
        self.name = name

    @property
    def n_phases(self) -> int:
        return len(self.phases)

    @property
    def n_statements(self) -> int:
        """Raw statements represented across all phases."""
        return sum(phase.length for phase in self.phases)

    @property
    def n_atoms(self) -> int:
        return sum(phase.n_atoms for phase in self.phases)

    @property
    def compression_ratio(self) -> float:
        """Raw statements per atom (1.0 = no compression)."""
        atoms = self.n_atoms
        if atoms == 0:
            return 1.0
        return self.n_statements / atoms

    def tag_counts(self) -> Dict[Optional[str], int]:
        """Raw statement count per tag, each atom counted under its
        representative's tag.

        This matches :meth:`~repro.workload.model.Workload.tag_counts`
        on the source trace only when every SQL text carries one tag:
        an atom keeps the tag of its first occurrence, so a text seen
        as ``A`` and then as ``B`` counts twice under ``A``.
        """
        counts: Dict[Optional[str], int] = {}
        for phase in self.phases:
            for statement, weight in zip(phase.statements,
                                         phase.weights):
                counts[statement.tag] = \
                    counts.get(statement.tag, 0) + weight
        return counts

    def __len__(self) -> int:
        return len(self.phases)

    def __iter__(self) -> Iterator[PhaseSummary]:
        return iter(self.phases)

    def __repr__(self) -> str:
        name = f" {self.name!r}" if self.name else ""
        return (f"<WorkloadSummary{name}: {self.n_phases} phases, "
                f"{self.n_atoms} atoms / {self.n_statements} "
                f"statements>")


CostUnit = Union[Segment, PhaseSummary]


def columns_of(unit: CostUnit
               ) -> Tuple[Tuple[Statement, ...], Tuple[int, ...]]:
    """A costing unit's atoms as ``(statements, weights)`` columns.

    This defines the canonical EXEC accumulation order shared by every
    costing path: for a :class:`PhaseSummary`, its stored columns; for
    a :class:`Segment` (or any statement iterable), the columns
    :func:`_fold` gives it — statements grouped by SQL text in
    first-appearance order. Grouping keys on the SQL text — not the
    statement template — because the serial provider's cache is
    SQL-keyed, and two texts sharing a template must stay separate
    terms for the weighted fold to be bit-identical across paths.
    """
    phase = unit if isinstance(unit, PhaseSummary) else _fold(unit, 0)
    return phase.statements, phase.weights


def atoms_of(unit: CostUnit) -> Iterator[Tuple[Statement, int]]:
    """The ``(representative, weight)`` pairs of a costing unit, in
    :func:`columns_of` order."""
    return zip(*columns_of(unit))


def _fold(statements: Iterable[Statement], start: int,
          tag: Optional[str] = None) -> PhaseSummary:
    """One phase from its statements: atoms keyed by SQL text in
    first-appearance order, each represented by its first occurrence.
    ``tag`` overrides the dominant tag — the most frequent non-None
    tag, the first seen on a tie."""
    first: Dict[str, Statement] = {}
    counts: Dict[str, int] = {}
    tag_counts: Dict[str, int] = {}
    for statement in statements:
        sql = statement.sql
        count = counts.get(sql)
        if count is None:
            first[sql] = statement
            count = 0
        counts[sql] = count + 1
        if statement.tag is not None:
            tag_counts[statement.tag] = \
                tag_counts.get(statement.tag, 0) + 1
    if tag is None and tag_counts:
        tag = max(tag_counts, key=tag_counts.__getitem__)
    weights = tuple(counts.values())
    return PhaseSummary(tuple(first.values()), weights, start,
                        sum(weights), tag)


def iter_phases(statements: Iterable[Statement],
                block_size: int) -> Iterator[PhaseSummary]:
    """Stream a statement iterable as one phase per block.

    Only the current phase's atom table is held — the raw statements
    are never materialized. The phase boundaries are exactly those of
    :func:`~repro.workload.segmentation.iter_segments_by_count`: empty
    input yields no phase and a final partial block becomes a short
    final phase; each phase equals ``summarize_segment`` of its
    segment. The online tuner observes these phases one at a time.
    """
    block_size = check_block_size(block_size)
    statements = iter(statements)
    start = 0
    while True:
        phase = _fold(islice(statements, block_size), start)
        if not phase.length:
            return
        yield phase
        start = phase.end


def summarize_statements(statements: Iterable[Statement],
                         block_size: int,
                         name: Optional[str] = None) -> WorkloadSummary:
    """Stream a statement iterable into a phase-per-block summary
    (the phases of :func:`iter_phases`)."""
    return WorkloadSummary(iter_phases(statements, block_size),
                           name=name)


def summarize_segment(segment: Segment) -> PhaseSummary:
    """Compress one segment into a phase, preserving its start/tag.

    The resulting phase costs bit-identically to the segment under
    every cost provider (same atoms, same order, same weights).
    """
    return _fold(segment, segment.start, segment.tag)


def summarize_segments(segments: Iterable[Segment],
                       name: Optional[str] = None) -> WorkloadSummary:
    """Compress an existing segmentation phase-for-phase."""
    return WorkloadSummary((summarize_segment(segment)
                            for segment in segments), name=name)
