"""Unit tests for the Database facade (catalog, DDL, configurations)."""

import numpy as np
import pytest

from repro.errors import CatalogError, SqlUnsupportedError
from repro.sqlengine import Database, IndexDef


@pytest.fixture
def db():
    db = Database()
    db.create_table("t", [("a", "INTEGER"), ("b", "INTEGER")])
    rng = np.random.default_rng(0)
    db.bulk_load("t", {"a": rng.integers(0, 100, 1000),
                       "b": rng.integers(0, 100, 1000)})
    return db


class TestCatalog:
    def test_duplicate_table_raises(self, db):
        with pytest.raises(CatalogError):
            db.create_table("t", [("x", "INTEGER")])

    def test_unknown_table_raises(self, db):
        with pytest.raises(CatalogError):
            db.table("missing")

    def test_create_table_via_sql(self, db):
        db.execute("CREATE TABLE u (x INT)")
        assert db.table("u").nrows == 0

    def test_drop_table(self, db):
        db.execute("CREATE TABLE u (x INT)")
        db.execute("DROP TABLE u")
        with pytest.raises(CatalogError):
            db.table("u")

    def test_drop_table_drops_its_indexes(self, db):
        db.execute("CREATE TABLE u (x INT)")
        db.execute("CREATE INDEX ix_u ON u (x)")
        db.execute("DROP TABLE u")
        assert "ix_u" not in db.indexes_by_name

    def test_drop_table_drops_every_dependent_structure(self, db):
        """Regression: no index or view — compressed variants
        included — may outlive its base table, and the surviving
        tables' structures must be untouched."""
        from repro.core.structures import Compression
        from repro.sqlengine.views import ViewDef
        survivor = db.create_index(IndexDef("t", ("a",)))
        db.create_table("u", [("x", "INTEGER"), ("y", "INTEGER")])
        db.bulk_load("u", {"x": np.arange(10), "y": np.arange(10)})
        db.create_index(IndexDef("u", ("x",)))
        db.create_index(IndexDef("u", ("x", "y"),
                                 Compression.HEAVY))
        db.create_view(ViewDef("u", ("x", "y"),
                               Compression.LIGHT))
        db.drop_table("u")
        assert db.indexes_for("u") == []
        assert db.views_for("u") == []
        assert not any(d.table == "u"
                       for d in db.current_configuration())
        # Dependents of other tables survive untouched.
        assert db.current_configuration() == \
            frozenset({survivor.definition})

    def test_drop_table_invalidates_dependent_buffer_objects(self, db):
        db.create_table("u", [("x", "INTEGER")])
        db.bulk_load("u", {"x": np.arange(100)})
        index = db.create_index(IndexDef("u", ("x",)))
        object_id = index.object_id
        db.drop_table("u")
        # The catalog no longer references the object; a fresh index
        # on a new table must get a fresh object id.
        db.create_table("v", [("x", "INTEGER")])
        db.bulk_load("v", {"x": np.arange(100)})
        fresh = db.create_index(IndexDef("v", ("x",)))
        assert fresh.object_id != object_id

    def test_create_index_and_lookup(self, db):
        db.create_index(IndexDef("t", ("a",)))
        assert db.find_index(IndexDef("t", ("a",))) is not None
        assert len(db.indexes_for("t")) == 1

    def test_duplicate_index_def_raises(self, db):
        db.create_index(IndexDef("t", ("a",)))
        with pytest.raises(CatalogError):
            db.create_index(IndexDef("t", ("a",)))

    def test_duplicate_index_name_raises(self, db):
        db.create_index(IndexDef("t", ("a",)), name="ix")
        with pytest.raises(CatalogError):
            db.create_index(IndexDef("t", ("b",)), name="ix")

    def test_drop_unknown_index_raises(self, db):
        with pytest.raises(CatalogError):
            db.drop_index("nope")

    def test_current_configuration(self, db):
        assert db.current_configuration() == frozenset()
        db.create_index(IndexDef("t", ("a",)))
        assert db.current_configuration() == \
            frozenset({IndexDef("t", ("a",))})


class TestStatsCache:
    def test_stats_cached(self, db):
        s1 = db.stats("t")
        s2 = db.stats("t")
        assert s1 is s2

    def test_stats_invalidated_by_dml(self, db):
        s1 = db.stats("t")
        db.execute("INSERT INTO t (a, b) VALUES (1, 2)")
        s2 = db.stats("t")
        assert s2.nrows == s1.nrows + 1

    def test_refresh_stats(self, db):
        s1 = db.stats("t")
        db.refresh_stats()
        assert db.stats("t") is not s1


class TestApplyConfiguration:
    def test_apply_creates_and_drops(self, db):
        a, b = IndexDef("t", ("a",)), IndexDef("t", ("b",))
        report = db.apply_configuration({a})
        assert report.executed == [("create", a)]
        report = db.apply_configuration({b})
        assert report.executed == [("drop", a), ("create", b)]
        assert db.current_configuration() == frozenset({b})

    def test_apply_noop_costs_nothing(self, db):
        db.apply_configuration({IndexDef("t", ("a",))})
        report = db.apply_configuration({IndexDef("t", ("a",))})
        assert report.executed == []
        assert report.metered.page_writes == 0

    def test_apply_empty_clears(self, db):
        db.apply_configuration({IndexDef("t", ("a",))})
        db.apply_configuration(set())
        assert db.current_configuration() == frozenset()

    def test_transition_units_positive_for_builds(self, db):
        report = db.apply_configuration({IndexDef("t", ("a",))})
        assert report.units(db.params) > 0

    def test_bulk_load_rebuilds_indexes(self, db):
        db.create_index(IndexDef("t", ("a",)))
        db.bulk_load("t", {"a": [123456], "b": [1]})
        rows = db.query("SELECT a FROM t WHERE a = 123456")
        assert rows == [(123456,)]
        index = db.find_index(IndexDef("t", ("a",)))
        cols, rids = index.leaf_arrays()
        assert len(rids) == db.table("t").nrows
        assert 123456 in cols["a"]


class TestExecuteDispatch:
    def test_select_text_and_ast_agree(self, db):
        from repro.sqlengine.sql import parse
        sql = "SELECT a FROM t WHERE a = 5"
        assert db.execute(sql).rows == db.execute(parse(sql)).rows

    def test_create_index_via_sql_charges_metrics(self, db):
        result = db.execute("CREATE INDEX ix_a ON t (a)")
        assert result.metrics.page_reads > 0
        assert result.metrics.page_writes > 0

    def test_drop_index_via_sql(self, db):
        db.execute("CREATE INDEX ix_a ON t (a)")
        db.execute("DROP INDEX ix_a")
        assert db.indexes_for("t") == []

    def test_query_returns_rows_only(self, db):
        rows = db.query("SELECT a FROM t LIMIT 3")
        assert isinstance(rows, list) and len(rows) == 3
