"""Unit tests for query analysis and access-path planning."""

import pytest

from repro.errors import PlanningError, SchemaError, TypeMismatchError
from repro.sqlengine import CostParams, IndexDef
from repro.sqlengine.index import IndexGeometry
from repro.sqlengine.planner import (RangeSpec, analyze_select,
                                     choose_access_path,
                                     enumerate_access_paths,
                                     predicate_selectivity,
                                     total_selectivity)
from repro.sqlengine.schema import TableSchema
from repro.sqlengine.sql import parse
from repro.sqlengine.stats import TableStats
from repro.sqlengine.types import ColumnType

PARAMS = CostParams()


@pytest.fixture(scope="module")
def schema(small_db):
    return small_db.table("t").schema


@pytest.fixture(scope="module")
def stats(small_db):
    return small_db.stats("t")


def geometries(schema, stats, *defs):
    return [(d, IndexGeometry.compute(schema, d.columns, stats.nrows))
            for d in defs]


class TestAnalyzeSelect:
    def test_star_expands(self, schema):
        info = analyze_select(parse("SELECT * FROM t"), schema)
        assert info.select_columns == ("a", "b", "c", "d")

    def test_eq_and_range_split(self, schema):
        info = analyze_select(
            parse("SELECT a FROM t WHERE a = 5 AND b > 3"), schema)
        assert info.eq_predicates == {"a": 5}
        assert info.range_predicates["b"].lo == 3
        assert not info.range_predicates["b"].lo_inclusive

    def test_between_becomes_range(self, schema):
        info = analyze_select(
            parse("SELECT a FROM t WHERE a BETWEEN 1 AND 9"), schema)
        spec = info.range_predicates["a"]
        assert (spec.lo, spec.hi) == (1, 9)
        assert spec.lo_inclusive and spec.hi_inclusive

    def test_ranges_intersect(self, schema):
        info = analyze_select(
            parse("SELECT a FROM t WHERE a > 3 AND a <= 10 AND a < 8"),
            schema)
        spec = info.range_predicates["a"]
        assert (spec.lo, spec.hi) == (3, 8)
        assert not spec.hi_inclusive

    def test_neq_collected(self, schema):
        info = analyze_select(
            parse("SELECT a FROM t WHERE a != 3"), schema)
        assert len(info.neq_predicates) == 1

    def test_referenced_columns(self, schema):
        info = analyze_select(
            parse("SELECT a FROM t WHERE b = 1 AND c > 2"), schema)
        assert set(info.referenced_columns) == {"a", "b", "c"}

    def test_unknown_select_column_raises(self, schema):
        with pytest.raises(SchemaError):
            analyze_select(parse("SELECT zz FROM t"), schema)

    def test_unknown_where_column_raises(self, schema):
        with pytest.raises(SchemaError):
            analyze_select(parse("SELECT a FROM t WHERE zz = 1"),
                           schema)

    def test_wrong_table_raises(self, schema):
        with pytest.raises(PlanningError):
            analyze_select(parse("SELECT a FROM other"), schema)


class TestLiteralKinds:
    """A literal compares only with a column of its kind: a string
    with TEXT, a number with a numeric column."""

    @pytest.fixture(scope="class")
    def mixed(self):
        return TableSchema.build("t", [("a", ColumnType.INTEGER),
                                       ("f", ColumnType.FLOAT),
                                       ("s", ColumnType.TEXT)])

    @pytest.mark.parametrize("where", [
        "a = 'x'", "a != 'x'", "a < 'x'", "a <= 'x'", "a > 'x'",
        "a >= 'x'", "a BETWEEN 'x' AND 'y'", "a BETWEEN 1 AND 'y'",
        "f < '2.5'", "s = 5", "s != 5", "s < 5", "s >= 2.5",
        "s BETWEEN 'a' AND 9", "a = 1 AND s > 2"])
    def test_other_kind_raises(self, mixed, where):
        with pytest.raises(TypeMismatchError):
            analyze_select(parse(f"SELECT a FROM t WHERE {where}"),
                           mixed)

    @pytest.mark.parametrize("where", [
        "a = 5", "a < 2.5", "f >= 3", "f BETWEEN 1 AND 2.5",
        "s = 'x'", "s != 'x'", "s BETWEEN 'a' AND 'k'"])
    def test_same_kind_passes(self, mixed, where):
        analyze_select(parse(f"SELECT a FROM t WHERE {where}"), mixed)


class TestRangeSpec:
    def test_intersect_tightens_both_sides(self):
        merged = RangeSpec(lo=1, hi=10).intersect(RangeSpec(lo=3, hi=8))
        assert (merged.lo, merged.hi) == (3, 8)

    def test_intersect_prefers_exclusive_on_tie(self):
        merged = RangeSpec(lo=3, lo_inclusive=True).intersect(
            RangeSpec(lo=3, lo_inclusive=False))
        assert not merged.lo_inclusive


class TestSelectivity:
    def test_point_predicate(self, schema, stats):
        # Use a mid-domain constant: values outside the observed
        # [min, max] legitimately estimate to zero.
        info = analyze_select(
            parse("SELECT a FROM t WHERE a = 250000"), schema)
        sel = predicate_selectivity(info, stats, "a")
        assert 0 < sel < 0.001

    def test_total_multiplies(self, schema, stats):
        info = analyze_select(
            parse("SELECT a FROM t WHERE a = 250000 AND b = 250000"),
            schema)
        total = total_selectivity(info, stats)
        assert total == pytest.approx(
            predicate_selectivity(info, stats, "a") *
            predicate_selectivity(info, stats, "b"))

    def test_no_predicates_means_one(self, schema, stats):
        info = analyze_select(parse("SELECT a FROM t"), schema)
        assert total_selectivity(info, stats) == 1.0


class TestAccessPathChoice:
    def test_no_indexes_full_scan(self, schema, stats):
        info = analyze_select(parse("SELECT a FROM t WHERE a = 5"),
                              schema)
        path = choose_access_path(info, stats, [], PARAMS)
        assert path.kind == "full_scan"

    def test_matching_index_seek_wins(self, schema, stats):
        info = analyze_select(parse("SELECT a FROM t WHERE a = 5"),
                              schema)
        pairs = geometries(schema, stats, IndexDef("t", ("a",)))
        path = choose_access_path(info, stats, pairs, PARAMS)
        assert path.kind == "index_seek"
        assert path.eq_prefix_len == 1

    def test_prefix_mismatch_cannot_seek(self, schema, stats):
        # I(a,b) cannot seek on b alone, but it covers b.
        info = analyze_select(parse("SELECT b FROM t WHERE b = 5"),
                              schema)
        pairs = geometries(schema, stats, IndexDef("t", ("a", "b")))
        paths = enumerate_access_paths(info, stats, pairs, PARAMS)
        kinds = {p.kind for p in paths}
        assert "index_seek" not in kinds
        assert "index_only_scan" in kinds

    def test_covering_scan_beats_heap_scan(self, schema, stats):
        info = analyze_select(parse("SELECT b FROM t WHERE b = 5"),
                              schema)
        pairs = geometries(schema, stats, IndexDef("t", ("a", "b")))
        path = choose_access_path(info, stats, pairs, PARAMS)
        assert path.kind == "index_only_scan"

    def test_composite_seek_on_full_prefix(self, schema, stats):
        info = analyze_select(
            parse("SELECT a FROM t WHERE a = 5 AND b = 6"), schema)
        pairs = geometries(schema, stats, IndexDef("t", ("a", "b")))
        path = choose_access_path(info, stats, pairs, PARAMS)
        assert path.kind == "index_seek"
        assert path.eq_prefix_len == 2

    def test_seek_with_range_on_second_column(self, schema, stats):
        info = analyze_select(
            parse("SELECT a FROM t WHERE a = 5 AND b > 100"), schema)
        pairs = geometries(schema, stats, IndexDef("t", ("a", "b")))
        path = choose_access_path(info, stats, pairs, PARAMS)
        assert path.kind == "index_seek"
        assert path.uses_range

    def test_leading_range_seek(self, schema, stats):
        info = analyze_select(
            parse("SELECT a FROM t WHERE a BETWEEN 10 AND 20"), schema)
        pairs = geometries(schema, stats, IndexDef("t", ("a",)))
        path = choose_access_path(info, stats, pairs, PARAMS)
        assert path.kind == "index_seek"
        assert path.eq_prefix_len == 0
        assert path.uses_range

    def test_best_of_multiple_indexes(self, schema, stats):
        info = analyze_select(parse("SELECT b FROM t WHERE b = 5"),
                              schema)
        pairs = geometries(schema, stats, IndexDef("t", ("a", "b")),
                           IndexDef("t", ("b",)))
        path = choose_access_path(info, stats, pairs, PARAMS)
        assert path.index == IndexDef("t", ("b",))
        assert path.kind == "index_seek"

    def test_paths_sorted_by_cost(self, schema, stats):
        info = analyze_select(parse("SELECT a FROM t WHERE a = 5"),
                              schema)
        pairs = geometries(schema, stats, IndexDef("t", ("a",)),
                           IndexDef("t", ("a", "b")))
        paths = enumerate_access_paths(info, stats, pairs, PARAMS)
        costs = [p.cost.total(PARAMS) for p in paths]
        assert costs == sorted(costs)

    def test_foreign_table_indexes_ignored(self, schema, stats):
        info = analyze_select(parse("SELECT a FROM t WHERE a = 5"),
                              schema)
        pairs = geometries(schema, stats, IndexDef("t", ("a",)))
        other = (IndexDef("other", ("a",)),
                 IndexGeometry.compute(schema, ("a",), stats.nrows))
        paths = enumerate_access_paths(info, stats,
                                       pairs + [other], PARAMS)
        assert all(p.index is None or p.index.table == "t"
                   for p in paths)

    def test_describe_mentions_path(self, schema, stats):
        info = analyze_select(parse("SELECT a FROM t WHERE a = 5"),
                              schema)
        path = choose_access_path(
            info, stats, geometries(schema, stats,
                                    IndexDef("t", ("a",))), PARAMS)
        text = path.describe(PARAMS)
        assert "index_seek" in text and "I(a)" in text
