"""Unit tests for workload perturbations."""

import pytest

from repro.errors import WorkloadError
from repro.workload import (Statement, Workload, jitter_blocks,
                            make_paper_workload, paper_generator,
                            resample_values)


@pytest.fixture(scope="module")
def w1():
    return make_paper_workload("W1", paper_generator(seed=4),
                               block_size=20)


def queried_column(statement):
    return statement.ast.where.predicates[0].column


class TestResampleValues:
    def test_same_columns_and_tags(self, w1):
        varied = resample_values(w1, seed=9)
        assert len(varied) == len(w1)
        for original, new in zip(w1, varied):
            assert queried_column(original) == queried_column(new)
            assert original.tag == new.tag

    def test_values_actually_change(self, w1):
        varied = resample_values(w1, seed=9)
        changed = sum(1 for o, n in zip(w1, varied) if o.sql != n.sql)
        assert changed > len(w1) * 0.9

    def test_deterministic(self, w1):
        v1 = resample_values(w1, seed=9)
        v2 = resample_values(w1, seed=9)
        assert [s.sql for s in v1] == [s.sql for s in v2]

    def test_values_stay_in_observed_range(self, w1):
        varied = resample_values(w1, seed=9)
        observed = {}
        for statement in w1:
            column = queried_column(statement)
            value = statement.ast.where.predicates[0].value
            lo, hi = observed.get(column, (value, value))
            observed[column] = (min(lo, value), max(hi, value))
        for statement in varied:
            column = queried_column(statement)
            value = statement.ast.where.predicates[0].value
            lo, hi = observed[column]
            assert lo <= value <= hi

    def test_explicit_range(self, w1):
        varied = resample_values(w1, seed=9, value_range=(0, 10))
        for statement in varied:
            assert 0 <= statement.ast.where.predicates[0].value <= 10

    def test_non_point_statements_pass_through(self):
        workload = Workload([Statement("DELETE FROM t WHERE a = 1"),
                             Statement("SELECT a FROM t")])
        varied = resample_values(workload, seed=1)
        assert [s.sql for s in varied] == [s.sql for s in workload]

    def test_derived_name(self, w1):
        assert resample_values(w1, seed=0).name == "W1~values"


class TestJitterBlocks:
    def test_permutes_whole_blocks(self, w1):
        varied = jitter_blocks(w1, block_size=20, seed=3)
        assert len(varied) == len(w1)
        assert sorted(s.sql for s in varied) == \
            sorted(s.sql for s in w1)

    def test_some_blocks_move(self, w1):
        varied = jitter_blocks(w1, block_size=20, seed=3)
        assert [s.sql for s in varied] != [s.sql for s in w1]

    def test_zero_block_raises(self, w1):
        with pytest.raises(WorkloadError):
            jitter_blocks(w1, block_size=0, seed=1)

    def test_phase_structure_survives_small_displacement(self, w1):
        # Displacement 2 cannot pull phase-2 (C/D) blocks earlier than
        # block 8, so the leading blocks stay pure phase-1.
        varied = jitter_blocks(w1, block_size=20, seed=3,
                               max_displacement=2)
        leading_tags = {s.tag for s in varied.statements[:7 * 20]}
        assert leading_tags <= {"A", "B"}

