"""Compressed workload summaries — the advisor stack's scalable IR.

The paper formulates constrained dynamic design over the raw statement
sequence, which ties advisor runtime to trace length. CoPhy-style
atomic decomposition shows the same problem only depends on *distinct*
statements and their multiplicities: EXEC(phase, config) =
Σ weight(atom) × cost(atom, config). This module provides that
representation:

* :class:`WorkloadAtom` — one distinct statement (keyed by SQL text)
  with its occurrence count inside a phase.
* :class:`PhaseSummary` — one design phase: atoms in first-appearance
  order plus the raw position/length/tag bookkeeping a
  :class:`~repro.workload.segmentation.Segment` would carry.
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
from typing import (Dict, Iterable, Iterator, List, Optional, Tuple,
                    Union)

from ..errors import WorkloadError
from .model import Statement, Workload
from .segmentation import Segment, check_block_size


@dataclass(frozen=True)
class WorkloadAtom:
    """One distinct statement within a phase, with its multiplicity.

    Attributes:
        statement: the first occurrence (representative) — later
            occurrences of the same SQL may carry different tags; the
            representative's tag is kept.
        weight: how many times the SQL text occurred in the phase.
    """

    statement: Statement
    weight: int

    @property
    def sql(self) -> str:
        return self.statement.sql

    def __repr__(self) -> str:
        return f"WorkloadAtom({self.statement.sql!r}, x{self.weight})"


@dataclass(frozen=True)
class PhaseSummary:
    """One design phase of a summarized trace.

    Quacks like a :class:`~repro.workload.segmentation.Segment` for
    position bookkeeping (``start``/``end``/``len``/``tag``) but holds
    ``(statement, weight)`` atoms instead of the statement list.
    Deliberately *not* iterable over statements — costing code must go
    through :func:`atoms_of` so the weighted accumulation stays
    explicit.

    Attributes:
        atoms: distinct statements in first-appearance order.
        start: index of the phase's first statement in the raw trace.
        length: raw statement count summarized (= Σ atom weights).
        tag: dominant tag of the phase (None if untagged).
    """

    atoms: Tuple[WorkloadAtom, ...]
    start: int
    length: int
    tag: Optional[str] = None

    def __post_init__(self) -> None:
        total = sum(atom.weight for atom in self.atoms)
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
        return len(self.atoms)

    def __len__(self) -> int:
        """Raw statements represented (not the atom count)."""
        return self.length

    def __repr__(self) -> str:
        tag = f", tag={self.tag!r}" if self.tag else ""
        return (f"PhaseSummary([{self.start}:{self.end}], "
                f"{len(self.atoms)} atoms{tag})")


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
        return sum(len(phase.atoms) for phase in self.phases)

    @property
    def compression_ratio(self) -> float:
        """Raw statements per atom (1.0 = no compression)."""
        atoms = self.n_atoms
        if atoms == 0:
            return 1.0
        return self.n_statements / atoms

    def tag_counts(self) -> Dict[Optional[str], int]:
        """Raw statement count per tag (matches
        :meth:`~repro.workload.model.Workload.tag_counts` on the
        source trace)."""
        counts: Dict[Optional[str], int] = {}
        for phase in self.phases:
            for atom in phase.atoms:
                tag = atom.statement.tag
                counts[tag] = counts.get(tag, 0) + atom.weight
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


def atoms_of(unit: CostUnit) -> Iterator[Tuple[Statement, int]]:
    """Yield ``(representative, weight)`` pairs for a costing unit.

    This defines the canonical EXEC accumulation order shared by every
    costing path: for a :class:`PhaseSummary`, the stored atoms; for a
    :class:`Segment` (or any statement iterable), statements grouped
    by SQL text in first-appearance order. Grouping keys on the SQL
    text — not the statement template — because the serial provider's
    cache is SQL-keyed, and two texts sharing a template must stay
    separate terms for the weighted fold to be bit-identical across
    paths.
    """
    atoms = getattr(unit, "atoms", None)
    if atoms is not None:
        for atom in atoms:
            yield atom.statement, atom.weight
        return
    grouped: Dict[str, List] = {}
    for statement in unit:
        entry = grouped.get(statement.sql)
        if entry is None:
            grouped[statement.sql] = [statement, 1]
        else:
            entry[1] += 1
    for statement, weight in grouped.values():
        yield statement, weight


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
    atoms = tuple(map(WorkloadAtom, first.values(), counts.values()))
    return PhaseSummary(atoms=atoms, start=start,
                        length=sum(counts.values()), tag=tag)


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


def summarize_workload(workload: Workload,
                       block_size: int) -> WorkloadSummary:
    """Summarize a materialized workload (phase per fixed-size block)."""
    return summarize_statements(workload, block_size,
                                name=workload.name)


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
