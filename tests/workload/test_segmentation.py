"""Unit tests for workload segmentation."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workload import (Statement, Workload, iter_segments_by_count,
                            segment_by_count)


@pytest.fixture
def workload():
    statements = []
    for i, tag in enumerate("AABBBC"):
        statements.append(
            Statement(f"SELECT a FROM t WHERE a = {i}", tag=tag))
    return Workload(statements)


class TestSegmentByCount:
    def test_even_split(self, workload):
        segments = segment_by_count(workload, 2)
        assert [len(s) for s in segments] == [2, 2, 2]
        assert [s.start for s in segments] == [0, 2, 4]

    def test_ragged_tail(self, workload):
        segments = segment_by_count(workload, 4)
        assert [len(s) for s in segments] == [4, 2]

    def test_block_of_one(self, workload):
        assert len(segment_by_count(workload, 1)) == 6

    def test_zero_block_raises(self, workload):
        with pytest.raises(WorkloadError):
            segment_by_count(workload, 0)

    @pytest.mark.parametrize("split", [
        segment_by_count,
        lambda statements, size: list(iter_segments_by_count(
            iter(statements), size))], ids=["list", "iter"])
    @pytest.mark.parametrize("block_size", [2.5, 3.0, "3", None, -1,
                                            True])
    def test_block_size_must_be_a_positive_int(self, workload, split,
                                               block_size):
        """2.5 used to make the whole stream one segment: a block's
        length never equals a fractional block size. True is not 1."""
        with pytest.raises(WorkloadError):
            split(workload, block_size)

    def test_numpy_block_size_accepted(self, workload):
        segments = segment_by_count(workload, np.int64(3))
        assert [(s.start, len(s)) for s in segments] == [(0, 3), (3, 3)]

    def test_dominant_tag(self, workload):
        segments = segment_by_count(workload, 3)
        assert segments[0].tag == "A"
        assert segments[1].tag == "B"

    def test_end_property(self, workload):
        segment = segment_by_count(workload, 4)[1]
        assert segment.end == 6


class TestSegmentPerStatement:
    def test_iteration_yields_statements(self, workload):
        segment = segment_by_count(workload, 1)[0]
        assert next(iter(segment)).sql.endswith("= 0")

    def test_repr_shows_span(self, workload):
        segment = segment_by_count(workload, 3)[1]
        assert "[3:6]" in repr(segment)


class TestStreamingByCount:
    """The streaming iterators must handle what a materialized list
    handles — including the edges a generator makes easy to get wrong."""

    def test_empty_trace_yields_nothing(self):
        assert list(iter_segments_by_count(iter([]), 5)) == []

    def test_single_statement_trace(self):
        segments = list(iter_segments_by_count(
            iter([Statement("SELECT a FROM t", tag="A")]), 5))
        assert len(segments) == 1
        assert len(segments[0]) == 1
        assert segments[0].start == 0
        assert segments[0].tag == "A"

    def test_final_partial_block(self):
        statements = (Statement(f"SELECT a FROM t WHERE a = {i}")
                      for i in range(7))
        segments = list(iter_segments_by_count(statements, 3))
        assert [len(s) for s in segments] == [3, 3, 1]
        assert [s.start for s in segments] == [0, 3, 6]
        assert segments[-1].end == 7

    def test_generator_input_matches_list(self, workload):
        streamed = list(iter_segments_by_count(
            iter(workload), 4))
        materialized = segment_by_count(workload, 4)
        assert [tuple(s.statements) for s in streamed] == \
            [tuple(s.statements) for s in materialized]
        assert [(s.start, s.tag) for s in streamed] == \
            [(s.start, s.tag) for s in materialized]

    def test_is_lazy(self):
        consumed = []

        def trace():
            for i in range(10):
                consumed.append(i)
                yield Statement(f"SELECT a FROM t WHERE a = {i}")

        iterator = iter_segments_by_count(trace(), 4)
        assert consumed == []
        next(iterator)
        assert len(consumed) == 4

    def test_zero_block_raises_before_consuming(self):
        with pytest.raises(WorkloadError):
            list(iter_segments_by_count(iter([]), 0))
