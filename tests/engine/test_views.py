"""Tests for materialized projection views as design structures."""

import numpy as np
import pytest

from repro.errors import CatalogError, SchemaError
from repro.sqlengine import Database, IndexDef, ViewDef
from repro.sqlengine.sql import parse
from repro.sqlengine.views import ViewGeometry

V_AB = ViewDef("t", ("a", "b"))
I_AB = IndexDef("t", ("a", "b"))
I_B = IndexDef("t", ("b",))


@pytest.fixture
def db():
    db = Database()
    db.create_table("t", [("a", "INTEGER"), ("b", "INTEGER"),
                          ("c", "INTEGER"), ("d", "INTEGER")])
    rng = np.random.default_rng(9)
    db.bulk_load("t", {c: rng.integers(0, 500, 8000) for c in "abcd"})
    return db


class TestViewDef:
    def test_columns_stored_sorted(self):
        assert ViewDef("t", ("b", "a")).columns == ("a", "b")
        assert ViewDef("t", ("b", "a")) == ViewDef("t", ("a", "b"))

    def test_label(self):
        assert V_AB.label == "V(a,b)"

    def test_covers(self):
        assert V_AB.covers(["a"]) and V_AB.covers(["a", "b"])
        assert not V_AB.covers(["a", "c"])

    def test_empty_columns_raise(self):
        with pytest.raises(SchemaError):
            ViewDef("t", ())

    def test_duplicate_columns_raise(self):
        with pytest.raises(SchemaError):
            ViewDef("t", ("a", "a"))

    def test_distinct_from_equivalent_index(self):
        assert V_AB != I_AB
        assert len({V_AB, I_AB}) == 2


class TestViewGeometry:
    def test_narrower_than_heap(self, db):
        schema = db.table("t").schema
        geometry = ViewGeometry.compute(schema, ("a", "b"), 8000)
        assert geometry.n_pages < db.table("t").n_pages
        assert geometry.row_width < schema.row_width

    def test_size_scales_with_rows(self, db):
        schema = db.table("t").schema
        small = ViewGeometry.compute(schema, ("a",), 1000)
        large = ViewGeometry.compute(schema, ("a",), 100_000)
        assert large.size_bytes > small.size_bytes


class TestWhatIfWithViews:
    def test_covering_view_scan_beats_heap_scan(self, db):
        what_if = db.what_if()
        stmt = parse("SELECT b FROM t WHERE b = 7")
        heap = what_if.estimate_statement(stmt, set()).units
        view = what_if.estimate_statement(stmt, {V_AB}).units
        assert view < heap

    def test_view_scan_cheaper_than_equivalent_index_scan(self, db):
        # Same columns: a projection view is narrower than an index
        # leaf level (no key order, no rids).
        what_if = db.what_if()
        stmt = parse("SELECT b FROM t WHERE b = 7")
        via_view = what_if.estimate_statement(stmt, {V_AB}).units
        via_index = what_if.estimate_statement(stmt, {I_AB}).units
        assert via_view < via_index

    def test_seek_still_beats_view(self, db):
        what_if = db.what_if()
        stmt = parse("SELECT b FROM t WHERE b = 7")
        seek = what_if.estimate_statement(stmt, {I_B, V_AB})
        assert seek.access_path.kind == "index_seek"

    def test_non_covering_view_ignored(self, db):
        what_if = db.what_if()
        stmt = parse("SELECT c FROM t WHERE c = 7")
        est = what_if.estimate_statement(stmt, {V_AB})
        assert est.access_path.kind == "full_scan"

    def test_view_build_cheaper_than_index_build(self, db):
        what_if = db.what_if()
        view_build = what_if.transition_units(set(), {V_AB})
        index_build = what_if.transition_units(set(), {I_AB})
        assert view_build < index_build

    def test_view_size_accounted(self, db):
        what_if = db.what_if()
        assert what_if.configuration_size_bytes({V_AB}) > 0
        combined = what_if.configuration_size_bytes({V_AB, I_B})
        assert combined == what_if.index_size_bytes(V_AB) + \
            what_if.index_size_bytes(I_B)


class TestMaterializedExecution:
    def test_view_scan_results_match_heap(self, db):
        want = db.query("SELECT a, b FROM t WHERE b = 7")
        db.create_view(V_AB)
        result = db.execute("SELECT a, b FROM t WHERE b = 7")
        assert result.access_path.kind == "view_scan"
        assert sorted(result.rows) == sorted(want)

    def test_view_scan_metered_cheaper_than_heap_scan(self, db):
        heap = db.execute("SELECT b FROM t WHERE b = 7")
        db.create_view(V_AB)
        view = db.execute("SELECT b FROM t WHERE b = 7")
        assert view.units(db.params) < heap.units(db.params)

    def test_duplicate_view_raises(self, db):
        db.create_view(V_AB)
        with pytest.raises(CatalogError):
            db.create_view(V_AB)

    def test_drop_view(self, db):
        view = db.create_view(V_AB)
        db.drop_view(view.name)
        assert db.views_for("t") == []
        with pytest.raises(CatalogError):
            db.drop_view(view.name)

    def test_apply_configuration_mixes_structures(self, db):
        report = db.apply_configuration({V_AB, I_B})
        assert [a for a, _ in report.executed] == ["create"] * 2
        assert db.current_configuration() == frozenset({V_AB, I_B})
        report = db.apply_configuration({I_B})
        assert report.executed == [("drop", V_AB)]

    def test_dml_maintains_view_results(self, db):
        db.create_view(V_AB)
        before = len(db.query("SELECT a FROM t WHERE b = 7"))
        db.execute("INSERT INTO t (a, b, c, d) VALUES (1, 7, 1, 1)")
        after = db.execute("SELECT a FROM t WHERE b = 7")
        assert after.access_path.kind == "view_scan"
        assert len(after.rows) == before + 1
        db.execute("DELETE FROM t WHERE b = 7")
        assert db.query("SELECT a FROM t WHERE b = 7") == []

    def test_drop_table_drops_views(self, db):
        db.create_view(V_AB)
        db.execute("DROP TABLE t")
        assert db.views_by_name == {}

    def test_aggregates_over_a_view_scan(self, db):
        db.create_view(V_AB)
        result = db.execute("SELECT COUNT(*), SUM(b) FROM t "
                            "WHERE b BETWEEN 100 AND 200")
        assert result.access_path.kind == "view_scan"
        arrays = {c: db.table("t").column_array(c) for c in "ab"}
        import numpy as np
        mask = (arrays["b"] >= 100) & (arrays["b"] <= 200)
        assert result.rows == [(int(mask.sum()),
                                int(arrays["b"][mask].sum()))]


class TestViewsInDesignProblems:
    def test_advisor_chooses_views_when_they_win(self, db):
        """End to end: with view candidates in the space, the advisor
        picks them for scan-bound mixed-column phases."""
        from repro.core import (ConstrainedGraphAdvisor,
                                EMPTY_CONFIGURATION, ProblemInstance,
                                WhatIfCostProvider,
                                build_cost_matrices,
                                single_index_configurations)
        from repro.workload import (Statement, Workload,
                                    segment_by_count)
        # Range queries over both columns, alternating filter column:
        # a single-column index can't cover the other column, so every
        # query either pays heap fetches or a full scan — the narrow
        # projection view serves all of them.
        rng = np.random.default_rng(4)
        statements = []
        for i in range(200):
            column = "a" if i % 2 == 0 else "b"
            lo = int(rng.integers(0, 400))
            statements.append(Statement(
                f"SELECT a, b FROM t WHERE {column} BETWEEN {lo} "
                f"AND {lo + 50}"))
        workload = Workload(statements)
        candidates = [IndexDef("t", ("a",)), IndexDef("t", ("b",)),
                      V_AB]
        problem = ProblemInstance(
            segments=tuple(segment_by_count(workload, 50)),
            configurations=single_index_configurations(candidates),
            initial=EMPTY_CONFIGURATION)
        provider = WhatIfCostProvider(db.what_if())
        matrices = build_cost_matrices(problem, provider)
        rec = ConstrainedGraphAdvisor(
            1, count_initial_change=False).recommend(
            problem, provider, matrices)
        assert rec.design[0].label == "{V(a,b)}"
