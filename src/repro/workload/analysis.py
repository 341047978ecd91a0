"""Workload analysis: profiles, shift detection, and k suggestion.

The paper suggests choosing k from "domain knowledge of applications
that generated the representative trace ... a value of k equal to or a
bit larger than the number of anticipated fluctuations". This module
extracts that number from the trace itself:

* :func:`block_profiles` — per-block distributions of queried columns
  (the empirical query mix of each block);
* :func:`detect_shifts` — changepoints in the profile sequence, split
  into *major* shifts (sustained distribution changes) and *minor*
  ones (local alternation), using a windowed-average criterion;
* :attr:`ShiftReport.suggested_k` — the paper's rule applied
  automatically: k = number of detected major shifts.

On the paper's W1 this recovers k = 2 without the mix labels (see
``tests/workload/test_analysis.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import SqlError, WorkloadError
from ..sqlengine.sql.ast import SelectStmt
from ..sqlengine.sql.parser import shape_statement
from .model import Statement, Workload
from .segmentation import iter_segments_by_count
from .summary import WorkloadSummary, atoms_of


@dataclass(frozen=True)
class BlockProfile:
    """Empirical distribution of queried columns in one block."""

    block_index: int
    frequencies: Dict[str, float]

    def distance(self, other: "BlockProfile") -> float:
        """Total-variation distance between two block profiles.

        Summed in dict order — self's columns, then other's columns
        self lacks — so the float result does not depend on the
        process's string-hash seed.
        """
        mine, theirs = self.frequencies, other.frequencies
        total = 0.0
        for column, frequency in mine.items():
            total += abs(frequency - theirs.get(column, 0.0))
        for column, frequency in theirs.items():
            if column not in mine:
                total += abs(frequency)
        return 0.5 * total


@dataclass(frozen=True)
class ShiftReport:
    """Detected workload shifts.

    Attributes:
        major_shifts: block indices where a *sustained* change of the
            query distribution begins.
        minor_shifts: block indices of local (non-sustained) changes.
        profiles: the per-block profiles the detection ran on.
        scores: per boundary (``scores[b]`` is the boundary in front of
            block ``b``; index 0 is never one): ``None`` where the
            adjacent blocks are closer than the threshold, else the
            sustained distance between the windowed averages either
            side — at or over the threshold for a major shift and for
            the weaker boundaries of its cluster, under it otherwise.
        window / threshold: the arguments the detection ran with.
    """

    major_shifts: Tuple[int, ...]
    minor_shifts: Tuple[int, ...]
    profiles: Tuple[BlockProfile, ...]
    scores: Tuple[Optional[float], ...]
    window: int
    threshold: float

    @property
    def suggested_k(self) -> int:
        return len(self.major_shifts)


def block_profiles(workload: Workload,
                   block_size: int) -> List[BlockProfile]:
    """Per-block frequencies of the column each point query touches.

    Non-point statements contribute to a ``"<other>"`` bucket, so DML
    or unparsable statements do not silently disappear.
    """
    return [segment_profile(block, index)
            for index, block in enumerate(
                iter_segments_by_count(workload, block_size))]


def summary_profiles(summary: WorkloadSummary) -> List[BlockProfile]:
    """Per-phase column frequencies of a workload summary — exactly
    those :func:`block_profiles` gives the raw trace at the summary's
    block size, no statement list needed."""
    return [segment_profile(phase, index)
            for index, phase in enumerate(summary.phases)]


def segment_profile(unit, block_index: int = -1) -> BlockProfile:
    """The :class:`BlockProfile` of one cost unit (a
    :class:`~repro.workload.segmentation.Segment` or a
    :class:`~repro.workload.summary.PhaseSummary`).

    The per-observation analogue of :func:`block_profiles` used by the
    contextual bandit tuner: each atom contributes its weight, so raw
    segments and compressed phases produce identical profiles. The
    profile doubles as the bandit's *context* — its dominant column is
    the context key — and a sequence of them feeds
    :func:`detect_shifts_from_profiles` for online shift detection.
    """
    counts: Dict[str, float] = {}
    total = 0.0
    for statement, weight in atoms_of(unit):
        key = _queried_column(statement) or "<other>"
        counts[key] = counts.get(key, 0.0) + weight
        total += weight
    total = max(1.0, total)
    return BlockProfile(
        block_index=block_index,
        frequencies={c: n / total for c, n in counts.items()})


def dominant_column(profile: BlockProfile) -> str:
    """The context key of a profile: its most frequent column
    (deterministic — frequency descending, then column name)."""
    if not profile.frequencies:
        return "<other>"
    return min(profile.frequencies.items(),
               key=lambda item: (-item[1], item[0]))[0]


def detect_shifts(workload: Workload, block_size: int,
                  window: int = 4,
                  threshold: float = 0.25) -> ShiftReport:
    """Find the blocks where the workload's distribution changes.

    A block boundary is a *candidate* shift when the profile distance
    between the adjacent blocks exceeds ``threshold``. A candidate is
    *major* when the windowed-average profile before the boundary is
    also far from the windowed average after it — alternating minors
    (A/B/A/B...) average out, while a phase change (A/B... to C/D...)
    does not.

    Args:
        workload: the trace.
        block_size: profile granularity.
        window: blocks averaged on each side of a boundary.
        threshold: total-variation distance that constitutes a shift.
    """
    return detect_shifts_from_profiles(
        block_profiles(workload, block_size), window, threshold)


def detect_summary_shifts(summary: WorkloadSummary, window: int = 4,
                          threshold: float = 0.25) -> ShiftReport:
    """:func:`detect_shifts` on a compressed summary: same criterion,
    phase-granular profiles, bounded memory."""
    return detect_shifts_from_profiles(
        summary_profiles(summary), window, threshold)


def detect_shifts_from_profiles(profiles: Sequence[BlockProfile],
                                window: int = 4,
                                threshold: float = 0.25,
                                previous: Optional[ShiftReport] = None
                                ) -> ShiftReport:
    """The shift-detection core, over prebuilt block/phase profiles.

    ``previous``, the report of a prefix of ``profiles``, makes the
    call pay for the new blocks only: a boundary's score is final once
    its after-window is full, so the prefix's other scores are kept.
    """
    if window < 1 or threshold <= 0:
        raise WorkloadError(
            "shift detection needs window >= 1 and threshold > 0")
    start, scores = 1, []
    if previous is not None:
        seen = len(previous.profiles)
        if (seen > len(profiles)
                or seen and previous.profiles[-1] is not profiles[seen - 1]
                or (previous.window, previous.threshold)
                != (window, threshold)):
            raise WorkloadError("previous is not the report of a "
                                "prefix of these profiles")
        start = max(1, seen - window + 1)
        scores = list(previous.scores[:start])
    scores += [None] * (len(profiles) - len(scores))
    for boundary in range(start, len(profiles)):
        local = profiles[boundary - 1].distance(profiles[boundary])
        if local < threshold:
            continue
        before = _window_average(profiles,
                                 max(0, boundary - window), boundary)
        after = _window_average(profiles, boundary,
                                min(len(profiles), boundary + window))
        scores[boundary] = before.distance(after)
    candidates = [(b, s) for b, s in enumerate(scores)
                  if s is not None and s >= threshold]
    minor = [b for b, s in enumerate(scores)
             if s is not None and s < threshold]
    # Candidates within one window of each other belong to a single
    # transition (the window straddles the phase edge for a few blocks
    # around a genuine shift); keep the strongest boundary of each
    # cluster.
    collapsed: List[int] = []
    cluster: List[Tuple[int, float]] = []

    def _flush() -> None:
        if cluster:
            best = max(cluster, key=lambda c: c[1])[0]
            collapsed.append(best)
            minor.extend(b for b, _ in cluster if b != best)

    for boundary, sustained in candidates:
        if cluster and boundary > cluster[-1][0] + window:
            _flush()
            cluster = []
        cluster.append((boundary, sustained))
    _flush()
    minor.sort()
    return ShiftReport(major_shifts=tuple(collapsed),
                       minor_shifts=tuple(minor),
                       profiles=tuple(profiles), scores=tuple(scores),
                       window=window, threshold=threshold)


def _window_average(profiles: Sequence[BlockProfile], start: int,
                    end: int) -> BlockProfile:
    columns: Dict[str, float] = {}
    span = max(1, end - start)
    for profile in profiles[start:end]:
        for column, frequency in profile.frequencies.items():
            columns[column] = columns.get(column, 0.0) + frequency
    return BlockProfile(block_index=-1,
                        frequencies={c: f / span
                                     for c, f in columns.items()})


def _queried_column(statement: Statement) -> Optional[str]:
    """The one column a point query's WHERE touches, else ``None``.

    The column is read off the shape's stored AST whenever ``parse``
    would bind the statement (it has the same predicate columns);
    otherwise off the statement's own AST, so a statement that does
    not parse profiles as ``<other>``."""
    ast = shape_statement(statement.sql)
    if ast is None:
        try:
            ast = statement.ast
        except SqlError:
            return None
    if not isinstance(ast, SelectStmt) or ast.where is None:
        return None
    columns = {p.column for p in ast.where.predicates}
    if len(columns) == 1:
        return next(iter(columns))
    return None
