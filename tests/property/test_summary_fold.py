"""Property tests for the summary fold.

``summarize_statements`` and ``summarize_segment`` fold statements into
phases with flat per-phase dicts. The reference below is the
per-phase accumulator they replaced, kept here: every phase field —
atom order, weights, representatives by identity, start, length and
the dominant tag with its first-seen tie rule — must be equal.
"""

from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.workload import (Segment, Statement, summarize_segment,
                            summarize_statements)
from repro.workload.summary import PhaseSummary, WorkloadAtom


class _ReferenceAccumulator:
    """One phase's ``sql -> [first statement, count]`` table."""

    def __init__(self, start: int):
        self.grouped: Dict[str, List] = {}
        self.tag_counts: Dict[str, int] = {}
        self.start = start
        self.length = 0

    def add(self, statement: Statement) -> None:
        entry = self.grouped.get(statement.sql)
        if entry is None:
            self.grouped[statement.sql] = [statement, 1]
        else:
            entry[1] += 1
        if statement.tag is not None:
            self.tag_counts[statement.tag] = \
                self.tag_counts.get(statement.tag, 0) + 1
        self.length += 1

    def finish(self, tag: Optional[str] = None) -> PhaseSummary:
        if tag is None and self.tag_counts:
            tag = max(self.tag_counts, key=lambda t: self.tag_counts[t])
        atoms = tuple(WorkloadAtom(statement, weight)
                      for statement, weight in self.grouped.values())
        return PhaseSummary(atoms=atoms, start=self.start,
                            length=self.length, tag=tag)


def reference_summarize(statements, block_size) -> List[PhaseSummary]:
    phases = []
    acc = _ReferenceAccumulator(start=0)
    for statement in statements:
        acc.add(statement)
        if acc.length == block_size:
            phases.append(acc.finish())
            acc = _ReferenceAccumulator(start=acc.start + acc.length)
    if acc.length:
        phases.append(acc.finish())
    return phases


def reference_segment(segment: Segment) -> PhaseSummary:
    acc = _ReferenceAccumulator(start=segment.start)
    for statement in segment:
        acc.add(statement)
    return acc.finish(tag=segment.tag)


def assert_same_phase(phase: PhaseSummary, expected: PhaseSummary):
    assert (phase.start, phase.length, phase.tag) == \
        (expected.start, expected.length, expected.tag)
    assert [atom.weight for atom in phase.atoms] == \
        [atom.weight for atom in expected.atoms]
    assert len(phase.atoms) == len(expected.atoms)
    assert all(atom.statement is ref.statement
               for atom, ref in zip(phase.atoms, expected.atoms))
    assert phase == expected


# Few texts and per-statement tags (not per text): atoms repeat, one
# text carries several tags, and tag counts tie often.
statements_st = st.lists(
    st.builds(lambda value, tag: Statement(
        f"SELECT a FROM t WHERE a = {value}", tag=tag),
        st.integers(0, 4), st.sampled_from([None, "A", "B", "C"])),
    max_size=24)


@given(statements=statements_st)
@settings(max_examples=150, deadline=None)
def test_summarize_statements_matches_reference(statements):
    for block_size in range(1, len(statements) + 2):
        phases = summarize_statements(iter(statements), block_size).phases
        expected = reference_summarize(statements, block_size)
        assert len(phases) == len(expected)
        for phase, ref in zip(phases, expected):
            assert_same_phase(phase, ref)


@given(statements=statements_st, start=st.integers(0, 1000),
       tag=st.sampled_from([None, "A", "Z"]))
@settings(max_examples=150, deadline=None)
def test_summarize_segment_matches_reference(statements, start, tag):
    segment = Segment(tuple(statements), start, tag)
    assert_same_phase(summarize_segment(segment),
                      reference_segment(segment))


def test_empty_stream():
    assert summarize_statements(iter([]), 3).phases == ()
    assert reference_summarize([], 3) == []


@pytest.mark.parametrize("tags, dominant", [
    (["B", "A", "A", "B"], "B"),
    ([None, "A", None, "B"], "A"),
    ([None, None], None),
    (["C", "B", "B", "C", "A", "A"], "C"),
])
def test_dominant_tag_is_the_first_maximum(tags, dominant):
    statements = [Statement(f"SELECT a FROM t WHERE a = {i % 2}", tag=t)
                  for i, t in enumerate(tags)]
    phase, = summarize_statements(iter(statements), len(tags)).phases
    assert phase.tag == dominant
    assert_same_phase(phase, reference_summarize(statements,
                                                 len(tags))[0])
