"""Unit tests for the compressed workload-summary IR."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workload import (Segment, Statement, Workload, atoms_of,
                            iter_phases, iter_segments_by_count,
                            segment_by_count,
                            summarize_segment, summarize_segments,
                            summarize_statements)
from repro.workload.summary import PhaseSummary


def _point(value, column="a", tag=None):
    return Statement(f"SELECT {column} FROM t WHERE {column} = {value}",
                     tag=tag)


@pytest.fixture
def repeated_trace():
    """Twelve statements over only four distinct SQL texts."""
    return [_point(i % 4, tag="AB"[i % 2]) for i in range(12)]


class TestSummarizeStatements:
    def test_empty_trace_yields_zero_phases(self):
        summary = summarize_statements(iter([]), 5)
        assert summary.n_phases == 0
        assert summary.n_statements == 0
        assert summary.compression_ratio == 1.0

    def test_single_statement_trace(self):
        summary = summarize_statements(iter([_point(1, tag="A")]), 5)
        assert summary.n_phases == 1
        assert summary.phases[0].length == 1
        assert summary.phases[0].start == 0
        assert summary.phases[0].tag == "A"

    def test_final_partial_phase(self):
        summary = summarize_statements(
            (_point(i) for i in range(7)), 3)
        assert [p.length for p in summary.phases] == [3, 3, 1]
        assert [p.start for p in summary.phases] == [0, 3, 6]
        assert summary.phases[-1].end == 7

    def test_zero_block_raises(self):
        with pytest.raises(WorkloadError):
            summarize_statements(iter([]), 0)

    @pytest.mark.parametrize("block_size", [2.5, 3.0, "3", None, -1,
                                            True])
    def test_block_size_must_be_a_positive_int(self, repeated_trace,
                                               block_size):
        """2.5 used to fold the whole stream into one phase: a
        running length never equals a fractional block size."""
        with pytest.raises(WorkloadError):
            summarize_statements(iter(repeated_trace), block_size)

    def test_numpy_block_size_accepted(self, repeated_trace):
        assert [(p.start, p.length) for p in summarize_statements(
            iter(repeated_trace), np.int64(5)).phases] == \
            [(0, 5), (5, 5), (10, 2)]

    def test_compresses_repeated_sql(self, repeated_trace):
        summary = summarize_statements(iter(repeated_trace), 12)
        assert summary.n_statements == 12
        assert summary.n_atoms == 4
        assert summary.compression_ratio == 3.0
        assert summary.phases[0].weights == (3, 3, 3, 3)

    def test_phase_boundaries_reset_atom_tables(self, repeated_trace):
        summary = summarize_statements(iter(repeated_trace), 4)
        assert summary.n_phases == 3
        # Each phase sees each SQL once per block of four.
        assert [phase.n_atoms for phase in summary.phases] == [4, 4, 4]

    def test_dominant_tag(self):
        trace = [_point(i, tag=("A" if i < 3 else "B"))
                 for i in range(4)]
        summary = summarize_statements(iter(trace), 4)
        assert summary.phases[0].tag == "A"

    def test_tag_counts_match_workload(self, repeated_trace):
        workload = Workload(repeated_trace)
        summary = summarize_statements(iter(repeated_trace), 5)
        assert summary.tag_counts() == workload.tag_counts()

    def test_tag_counts_use_each_atoms_first_tag(self):
        """One SQL text tagged ``A`` then ``B``: the atom keeps its
        first occurrence's tag, so the summary counts both under
        ``A`` while the source splits them — the method matches the
        source only when every text carries one tag."""
        trace = [_point(1, tag="A"), _point(1, tag="B")]
        summary = summarize_statements(iter(trace), 2)
        assert summary.tag_counts() == {"A": 2}
        assert Workload(trace).tag_counts() == {"A": 1, "B": 1}

    def test_mirrors_streaming_segmentation(self, repeated_trace):
        segments = list(iter_segments_by_count(
            iter(repeated_trace), 5))
        summary = summarize_statements(iter(repeated_trace), 5)
        assert [(p.start, p.length, p.tag) for p in summary.phases] \
            == [(s.start, len(s), s.tag) for s in segments]


class TestIterPhases:
    @pytest.mark.parametrize("n", [0, 1, 7, 12])
    def test_one_fold_for_every_block_size(self, n):
        """The streaming phases, the collected summary and the
        segment-by-segment fold are the same phases, for every block
        size from one statement to past the whole stream."""
        trace = [_point(i % 4, column="ab"[i % 3 == 0],
                        tag=[None, "A", "B"][i % 3]) for i in range(n)]
        for block_size in range(1, n + 2):
            streamed = tuple(iter_phases(iter(trace), block_size))
            assert streamed == \
                summarize_statements(iter(trace), block_size).phases
            assert streamed == tuple(map(summarize_segment,
                                         iter_segments_by_count(
                                             trace, block_size)))
        assert tuple(iter_phases(iter(trace), n + 1)) == (
            (summarize_segment(Segment(tuple(trace), 0)),) if n else ())

    def test_streams_one_phase_at_a_time(self):
        drawn = []

        def source():
            for i in range(10):
                drawn.append(i)
                yield _point(i)
        phases = iter_phases(source(), 4)
        assert next(phases).end == 4
        assert len(drawn) <= 5  # the next block is not read ahead
        assert [p.start for p in phases] == [4, 8]

    def test_bad_block_size_raises_on_first_phase(self):
        with pytest.raises(WorkloadError):
            next(iter_phases(iter([]), 0))


class TestSummarizeSegments:
    def test_segment_roundtrip_preserves_bookkeeping(
            self, repeated_trace):
        segment = segment_by_count(Workload(repeated_trace), 5)[1]
        phase = summarize_segment(segment)
        assert (phase.start, phase.length, phase.tag) == \
            (segment.start, len(segment), segment.tag)

    def test_atoms_match_canonical_fold(self, repeated_trace):
        segment = segment_by_count(Workload(repeated_trace), 12)[0]
        phase = summarize_segment(segment)
        assert list(atoms_of(phase)) == list(atoms_of(segment))

    def test_summarize_segments_keeps_phase_count(self, repeated_trace):
        segments = segment_by_count(Workload(repeated_trace), 5)
        summary = summarize_segments(segments, name="w")
        assert summary.n_phases == len(segments)
        assert summary.name == "w"


class TestAtomsOf:
    def test_groups_by_sql_first_appearance(self):
        statements = [_point(2), _point(1), _point(2), _point(1),
                      _point(2)]
        segment = segment_by_count(Workload(statements), 5)[0]
        atoms = list(atoms_of(segment))
        assert [s.sql for s, _ in atoms] == [_point(2).sql,
                                             _point(1).sql]
        assert [w for _, w in atoms] == [3, 2]

    def test_representative_is_first_occurrence(self):
        statements = [_point(1, tag="A"), _point(1, tag="B")]
        segment = segment_by_count(Workload(statements), 2)[0]
        (statement, weight), = atoms_of(segment)
        assert statement.tag == "A"
        assert weight == 2

    def test_phase_summary_yields_stored_atoms(self):
        statement = _point(7)
        phase = PhaseSummary((statement,), (3,), start=0, length=3)
        assert list(atoms_of(phase)) == [(statement, 3)]


class TestPhaseSummaryValidation:
    def test_weight_length_mismatch_raises(self):
        with pytest.raises(WorkloadError, match="sum of atom weights"):
            PhaseSummary((_point(1),), (2,), start=0, length=3)

    def test_column_lengths_must_match(self):
        with pytest.raises(WorkloadError, match="1 statements but 2"):
            PhaseSummary((_point(1),), (1, 1), start=0, length=2)

    @pytest.mark.parametrize("weights", [
        (2, -1), (1, 0), (1.5, 0.5), (True, 1), (np.int64(1), 1)])
    def test_weights_must_be_positive_ints(self, weights):
        """A negative weight used to cost ``2u - u``; a zero, a float
        or a bool is no count a fold can produce either. Each length
        matches the weights' sum, so only the weight rule refuses."""
        with pytest.raises(WorkloadError, match="positive ints"):
            PhaseSummary((_point(1), _point(2)), weights, start=0,
                         length=int(sum(weights)))

    def test_sql_texts_must_be_distinct(self):
        """The same text twice — even under different tags — is two
        atoms where a fold makes one."""
        with pytest.raises(WorkloadError, match="repeats"):
            PhaseSummary((_point(1, tag="A"), _point(1, tag="B")),
                         (1, 1), start=0, length=2)

    def test_empty_phase_is_valid(self):
        assert PhaseSummary((), (), start=5, length=0).n_atoms == 0

    def test_len_is_raw_statement_count(self):
        phase = PhaseSummary((_point(1),), (4,), start=2, length=4)
        assert len(phase) == 4
        assert phase.n_atoms == 1
        assert phase.end == 6

    def test_repr_shows_span_and_atoms(self):
        phase = PhaseSummary((_point(1),), (2,), start=0, length=2,
                             tag="A")
        assert "[0:2]" in repr(phase)
        assert "1 atoms" in repr(phase)
