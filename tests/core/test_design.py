"""Unit tests for design sequences."""

import pytest

from repro.core import Configuration, DesignSequence, EMPTY_CONFIGURATION
from repro.core.design import design_from_indices
from repro.errors import DesignError
from repro.sqlengine import IndexDef

from .helpers import random_matrices, synthetic_configs

A = Configuration({IndexDef("t", ("a",))})
B = Configuration({IndexDef("t", ("b",))})
E = EMPTY_CONFIGURATION


class TestRuns:
    def test_runs_structure(self):
        design = DesignSequence(E, [A, A, B, A])
        runs = design.runs()
        assert [(r.config, r.start, r.end) for r in runs] == \
            [(A, 0, 2), (B, 2, 3), (A, 3, 4)]
        assert [len(r) for r in runs] == [2, 1, 1]

    def test_single_run(self):
        assert len(DesignSequence(E, [A] * 5).runs()) == 1


class TestBasics:
    def test_empty_assignment_raises(self):
        with pytest.raises(DesignError):
            DesignSequence(E, [])

    def test_indexing_and_len(self):
        design = DesignSequence(E, [A, B])
        assert len(design) == 2
        assert design[1] == B

    def test_equality_and_hash(self):
        d1 = DesignSequence(E, [A, B])
        d2 = DesignSequence(E, [A, B])
        assert d1 == d2
        assert len({d1, d2}) == 1

    def test_format_table_lists_runs(self):
        design = DesignSequence(E, [A, A, B])
        text = design.format_table()
        assert "0..1" in text and "2..2" in text
        assert "I(a)" in text and "I(b)" in text

    def test_format_table_with_labels(self):
        design = DesignSequence(E, [A, B])
        text = design.format_table(segment_labels=["one", "two"])
        assert "one..one" in text


class TestCosting:
    def test_cost_matches_matrices(self):
        matrices = random_matrices(4, 3, seed=9)
        design = design_from_indices(matrices, [1, 1, 2, 0],
                                     matrices.configurations[0])
        assert design.cost(matrices) == pytest.approx(
            matrices.sequence_cost([1, 1, 2, 0]))

    def test_to_indices_round_trip(self):
        matrices = random_matrices(3, 3, seed=10)
        design = design_from_indices(matrices, [2, 0, 1],
                                     matrices.configurations[0])
        assert design.to_indices(matrices) == [2, 0, 1]
