"""Unit tests for problem instances and configuration enumeration."""

import pytest

from repro.core import (Configuration, EMPTY_CONFIGURATION,
                        ProblemInstance, enumerate_configurations)
from repro.errors import InfeasibleProblemError
from repro.sqlengine import IndexDef
from repro.workload import Segment, Statement, summarize_segments

A = IndexDef("t", ("a",))
B = IndexDef("t", ("b",))
C = IndexDef("t", ("c",))


def segments(n=3):
    return tuple(Segment((Statement(f"SELECT a FROM t WHERE a = {i}"),),
                         start=i) for i in range(n))


def phases(n=3):
    return summarize_segments(segments(n)).phases


CONFIGS = (EMPTY_CONFIGURATION, Configuration({A}), Configuration({B}))


class TestProblemInstance:
    """Every case runs over raw segments here and over summarized
    phases in :class:`TestProblemInstanceOverPhases` below."""

    units = staticmethod(segments)

    def test_basic_construction(self):
        problem = ProblemInstance(segments=self.units(),
                                  configurations=CONFIGS,
                                  initial=EMPTY_CONFIGURATION, k=2)
        assert problem.n_segments == 3
        assert problem.n_configurations == 3
        assert problem.n_statements == 3

    def test_empty_workload_raises(self):
        with pytest.raises(InfeasibleProblemError):
            ProblemInstance(segments=(), configurations=CONFIGS,
                            initial=EMPTY_CONFIGURATION)

    def test_no_configurations_raises(self):
        with pytest.raises(InfeasibleProblemError):
            ProblemInstance(segments=self.units(), configurations=(),
                            initial=EMPTY_CONFIGURATION)

    def test_negative_k_raises(self):
        with pytest.raises(InfeasibleProblemError):
            ProblemInstance(segments=self.units(), configurations=CONFIGS,
                            initial=EMPTY_CONFIGURATION, k=-1)

    def test_initial_added_if_missing(self):
        problem = ProblemInstance(segments=self.units(),
                                  configurations=CONFIGS[1:],
                                  initial=EMPTY_CONFIGURATION)
        assert EMPTY_CONFIGURATION in problem.configurations

    def test_final_must_be_candidate(self):
        with pytest.raises(InfeasibleProblemError):
            ProblemInstance(segments=self.units(), configurations=CONFIGS,
                            initial=EMPTY_CONFIGURATION,
                            final=Configuration({C}))

    def test_with_k(self):
        problem = ProblemInstance(segments=self.units(),
                                  configurations=CONFIGS,
                                  initial=EMPTY_CONFIGURATION, k=5,
                                  space_bound_bytes=7,
                                  final=EMPTY_CONFIGURATION)
        relaxed = problem.with_k(None)
        assert problem.with_k(1).k == 1
        assert problem.k == 5
        assert relaxed == ProblemInstance(
            segments=problem.segments, configurations=CONFIGS,
            initial=EMPTY_CONFIGURATION, k=None, space_bound_bytes=7,
            final=EMPTY_CONFIGURATION)

    def test_restrict_configurations(self):
        problem = ProblemInstance(segments=self.units(),
                                  configurations=CONFIGS,
                                  initial=EMPTY_CONFIGURATION, k=1)
        reduced = problem.restrict_configurations(CONFIGS[:2])
        assert reduced.n_configurations == 2
        assert reduced.segments == problem.segments
        assert reduced.k == 1


class TestProblemInstanceOverPhases(TestProblemInstance):
    units = staticmethod(phases)


class TestEnumerateConfigurations:
    def test_all_subsets(self):
        configs = enumerate_configurations([A, B])
        assert len(configs) == 4  # {}, {A}, {B}, {A,B}

    def test_max_indexes_cap(self):
        configs = enumerate_configurations([A, B, C], max_indexes=1)
        assert len(configs) == 4  # {} + three singles

    def test_exclude_empty(self):
        configs = enumerate_configurations([A], include_empty=False)
        assert EMPTY_CONFIGURATION not in configs

    def test_space_bound_filters(self):
        sizes = {Configuration({A}): 10, Configuration({B}): 100,
                 Configuration({A, B}): 110}
        configs = enumerate_configurations(
            [A, B], size_fn=lambda c: sizes.get(c, 0),
            space_bound_bytes=50)
        assert Configuration({A}) in configs
        assert Configuration({B}) not in configs
        assert Configuration({A, B}) not in configs

    def test_bound_without_size_fn_raises(self):
        with pytest.raises(InfeasibleProblemError):
            enumerate_configurations([A], space_bound_bytes=10)

    def test_bound_excluding_everything_keeps_empty(self):
        configs = enumerate_configurations(
            [A], size_fn=lambda c: 999, space_bound_bytes=1)
        assert configs == [EMPTY_CONFIGURATION]

    def test_bound_excluding_everything_without_empty_raises(self):
        with pytest.raises(InfeasibleProblemError):
            enumerate_configurations(
                [A], size_fn=lambda c: 999, space_bound_bytes=1,
                include_empty=False)

    def test_duplicate_candidates_collapse(self):
        assert len(enumerate_configurations([A, A])) == 2
