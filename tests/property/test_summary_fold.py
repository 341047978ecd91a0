"""Property tests for the summary fold.

``summarize_statements`` and ``summarize_segment`` fold statements into
phases with flat per-phase dicts and keep each phase's atoms as two
columns. The reference below is the per-phase accumulator they
replaced, kept here: every phase field — atom order, weights,
representatives by identity, start, length and the dominant tag with
its first-seen tie rule — must be equal.
"""

import json
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.workload import (Segment, Statement, iter_trace,
                            summarize_segment, summarize_statements)
from repro.workload.summary import PhaseSummary


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
        statements = tuple(entry[0] for entry in self.grouped.values())
        weights = tuple(entry[1] for entry in self.grouped.values())
        return PhaseSummary(statements, weights, start=self.start,
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
    assert phase.weights == expected.weights
    assert len(phase.statements) == len(expected.statements)
    assert all(statement is ref for statement, ref in
               zip(phase.statements, expected.statements))
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



@given(values=st.lists(st.integers(0, 5), max_size=40),
       block_size=st.integers(1, 9))
@settings(max_examples=60, deadline=None)
def test_streamed_phases_share_one_statement_per_line(
        tmp_path_factory, values, block_size):
    """Read from a trace, a line that recurs in several phases is one
    ``Statement`` object in all of them: across all phases there are
    exactly as many distinct objects as distinct lines. (The tag
    follows the text, so each distinct line is some phase's
    representative.)"""
    records = [json.dumps({"sql": f"SELECT a FROM t WHERE a = {v}",
                           "tag": (None, "A", "B")[v % 3]})
               for v in values]
    path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    path.write_text("\n".join(
        ['{"format": "repro-trace", "version": 1}'] + records) + "\n")
    summary = summarize_statements(iter_trace(path), block_size)
    ids = {id(statement) for phase in summary.phases
           for statement in phase.statements}
    assert len(ids) == len(set(records))
