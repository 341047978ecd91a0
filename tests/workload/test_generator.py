"""Unit tests for query generation."""

import pytest

from repro.errors import WorkloadError
from repro.workload import PointQueryGenerator, QueryMix
from repro.workload.generator import workload_from_block_mixes

RANGES = {"a": (0, 1000), "b": (0, 1000)}
MIX = QueryMix("M", {"a": 0.8, "b": 0.2})


class TestQueryMix:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(WorkloadError):
            QueryMix("bad", {"a": 0.5, "b": 0.4})

    def test_negative_weight_raises(self):
        with pytest.raises(WorkloadError):
            QueryMix("bad", {"a": 1.5, "b": -0.5})


class TestPointQueryGenerator:
    def test_reproducible_with_seed(self):
        g1 = PointQueryGenerator("t", RANGES, seed=5)
        g2 = PointQueryGenerator("t", RANGES, seed=5)
        assert [s.sql for s in g1.sample(MIX, 50)] == \
            [s.sql for s in g2.sample(MIX, 50)]

    def test_different_seeds_differ(self):
        g1 = PointQueryGenerator("t", RANGES, seed=1)
        g2 = PointQueryGenerator("t", RANGES, seed=2)
        assert [s.sql for s in g1.sample(MIX, 50)] != \
            [s.sql for s in g2.sample(MIX, 50)]

    def test_queries_parse_and_are_points(self):
        generator = PointQueryGenerator("t", RANGES, seed=0)
        for statement in generator.sample(MIX, 20):
            ast = statement.ast
            assert ast.table == "t"
            assert len(ast.where.predicates) == 1
            assert ast.where.predicates[0].op == "="

    def test_values_within_range(self):
        generator = PointQueryGenerator("t", {"a": (10, 20)}, seed=0)
        mix = QueryMix("m", {"a": 1.0})
        for statement in generator.sample(mix, 100):
            value = statement.ast.where.predicates[0].value
            assert 10 <= value < 20

    def test_tags_default_to_mix_name(self):
        generator = PointQueryGenerator("t", RANGES, seed=0)
        assert all(s.tag == "M" for s in generator.sample(MIX, 5))

    def test_mix_frequencies_approximate_weights(self):
        generator = PointQueryGenerator("t", RANGES, seed=3)
        statements = generator.sample(MIX, 5000)
        on_a = sum(1 for s in statements
                   if s.ast.where.predicates[0].column == "a")
        assert on_a / 5000 == pytest.approx(0.8, abs=0.03)

    def test_unknown_mix_column_raises(self):
        generator = PointQueryGenerator("t", {"a": (0, 10)}, seed=0)
        with pytest.raises(WorkloadError):
            generator.sample(QueryMix("m", {"zz": 1.0}), 5)

    def test_empty_ranges_raise(self):
        with pytest.raises(WorkloadError):
            PointQueryGenerator("t", {}, seed=0)


class TestPhasedWorkloads:
    def test_workload_from_block_mixes_tags(self):
        generator = PointQueryGenerator("t", RANGES, seed=0)
        mix2 = QueryMix("N", {"b": 1.0})
        workload = workload_from_block_mixes(generator, [MIX, mix2],
                                             block_size=5)
        assert [s.tag for s in workload] == ["M"] * 5 + ["N"] * 5
