"""Tests for aggregate queries (COUNT/MIN/MAX/SUM/AVG)."""

import numpy as np
import pytest

from repro.errors import SchemaError, SqlSyntaxError, SqlUnsupportedError
from repro.sqlengine import Database, IndexDef
from repro.sqlengine.compression import Compression
from repro.sqlengine.sql import parse
from repro.sqlengine.sql.ast import Aggregate


@pytest.fixture(scope="module")
def db():
    db = Database()
    db.create_table("t", [("a", "INTEGER"), ("b", "INTEGER"),
                          ("name", "TEXT")])
    rng = np.random.default_rng(11)
    n = 4000
    db.bulk_load("t", {
        "a": rng.integers(0, 50, n),
        "b": rng.integers(0, 1000, n),
        "name": np.array([f"n{i % 7}" for i in range(n)]),
    })
    return db


@pytest.fixture(scope="module")
def arrays(db):
    return {c: db.table("t").column_array(c).copy()
            for c in ("a", "b")}


class TestParsing:
    def test_count_star(self):
        stmt = parse("SELECT COUNT(*) FROM t")
        assert stmt.aggregates == (Aggregate("COUNT", None),)
        assert stmt.columns == ()

    def test_multiple_aggregates(self):
        stmt = parse("SELECT MIN(a), MAX(a), AVG(b) FROM t")
        assert [a.func for a in stmt.aggregates] == \
            ["MIN", "MAX", "AVG"]

    def test_case_insensitive_function_names(self):
        stmt = parse("SELECT count(*), sum(b) FROM t")
        assert [a.func for a in stmt.aggregates] == ["COUNT", "SUM"]

    def test_mixing_with_plain_columns_rejected(self):
        with pytest.raises(SqlUnsupportedError):
            parse("SELECT a, COUNT(*) FROM t")

    def test_min_star_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT MIN(*) FROM t")

    def test_unknown_function_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT MEDIAN(a) FROM t")

    def test_sql_round_trip(self):
        sql = "SELECT COUNT(*), SUM(b) FROM t WHERE a = 5"
        assert parse(parse(sql).sql()) == parse(sql)


class TestExecution:
    def test_count_star_all(self, db):
        assert db.query("SELECT COUNT(*) FROM t") == [(4000,)]

    def test_count_with_predicate(self, db, arrays):
        want = int((arrays["a"] == 7).sum())
        assert db.query("SELECT COUNT(*) FROM t WHERE a = 7") == \
            [(want,)]

    def test_min_max(self, db, arrays):
        got = db.query("SELECT MIN(b), MAX(b) FROM t")
        assert got == [(int(arrays["b"].min()),
                        int(arrays["b"].max()))]

    def test_sum_avg_with_predicate(self, db, arrays):
        mask = arrays["a"] == 3
        got = db.query("SELECT SUM(b), AVG(b) FROM t WHERE a = 3")
        assert got[0][0] == int(arrays["b"][mask].sum())
        assert got[0][1] == pytest.approx(
            float(arrays["b"][mask].mean()))

    def test_empty_input_semantics(self, db):
        got = db.query(
            "SELECT COUNT(*), MIN(b), SUM(b) FROM t WHERE a = 999")
        assert got == [(0, None, None)]

    def test_contradiction_counts_zero(self, db):
        got = db.query("SELECT COUNT(*) FROM t WHERE a = 1 AND a = 2")
        assert got == [(0,)]

    def test_sum_on_text_rejected(self, db):
        with pytest.raises(SchemaError):
            db.execute("SELECT SUM(name) FROM t")

    def test_count_on_text_allowed(self, db):
        assert db.query("SELECT COUNT(name) FROM t") == [(4000,)]

    def test_unknown_aggregate_column_rejected(self, db):
        with pytest.raises(SchemaError):
            db.execute("SELECT MIN(zz) FROM t")


class TestIndexInteraction:
    @pytest.fixture(scope="class")
    def idb(self):
        db = Database()
        db.create_table("t", [("a", "INTEGER"), ("b", "INTEGER")])
        rng = np.random.default_rng(12)
        db.bulk_load("t", {"a": rng.integers(0, 50, 6000),
                           "b": rng.integers(0, 1000, 6000)})
        db.execute("CREATE INDEX ix_a ON t (a)")
        db.execute("CREATE INDEX ix_ba ON t (b, a)")
        return db

    def test_min_answered_from_index_descent(self, idb):
        result = idb.execute("SELECT MIN(a) FROM t")
        expected = int(idb.table("t").column_array("a").min())
        assert result.rows == [(expected,)]
        # One descent + one leaf page, far below a scan.
        assert result.metrics.page_reads < 6

    def test_max_answered_from_index_descent(self, idb):
        result = idb.execute("SELECT MAX(b) FROM t")
        expected = int(idb.table("t").column_array("b").max())
        assert result.rows == [(expected,)]
        assert result.metrics.page_reads < 6

    def test_predicated_count_uses_seek(self, idb):
        result = idb.execute("SELECT COUNT(*) FROM t WHERE a = 7")
        assert result.access_path.kind == "index_seek"
        want = int((idb.table("t").column_array("a") == 7).sum())
        assert result.rows == [(want,)]

    def test_count_star_covering_via_index(self, idb):
        # COUNT(*) WHERE b = x references only b: I(b,a) can seek.
        result = idb.execute("SELECT COUNT(*) FROM t WHERE b = 31")
        assert result.access_path.kind == "index_seek"

    def test_results_match_unindexed(self, idb):
        unindexed = Database()
        unindexed.create_table("t", [("a", "INTEGER"),
                                     ("b", "INTEGER")])
        unindexed.bulk_load("t", {
            "a": idb.table("t").column_array("a"),
            "b": idb.table("t").column_array("b")})
        for sql in ("SELECT COUNT(*), MIN(a), MAX(b) FROM t",
                    "SELECT SUM(b) FROM t WHERE a BETWEEN 5 AND 9"):
            assert idb.query(sql) == unindexed.query(sql)


class TestMinMaxShortcut:
    """The unpredicated MIN/MAX shortcut picks its index by geometry,
    never by creation order, and prices decoding as a seek does."""

    @staticmethod
    def _db(definitions):
        db = Database()
        db.create_table("t", [("a", "INTEGER"), ("b", "TEXT"),
                              ("c", "TEXT")])
        rng = np.random.default_rng(5)
        n = 10_000
        db.bulk_load("t", {
            "a": rng.integers(0, 1000, n),
            "b": np.array([f"b{i % 13}" for i in range(n)]),
            "c": np.array([f"c{i % 7}" for i in range(n)]),
        })
        for definition in definitions:
            db.create_index(definition)
        return db

    def test_creation_order_does_not_change_the_cost(self):
        narrow = IndexDef("t", ("a",))
        wide = IndexDef("t", ("a", "b", "c"))
        db = self._db([narrow, wide])
        # The wide key needs one more level: the choice is observable.
        height = db.find_index(narrow).geometry().height
        assert db.find_index(wide).geometry().height > height
        first = db.execute("SELECT MIN(a) FROM t")
        second = self._db([wide, narrow]).execute("SELECT MIN(a) FROM t")
        assert first.rows == second.rows
        assert first.metrics == second.metrics
        assert first.metrics.page_reads == height + 1

    def test_compressed_index_charges_its_cpu_factor(self):
        db = self._db([IndexDef("t", ("a",), Compression.HEAVY)])
        result = db.execute("SELECT MAX(a) FROM t")
        assert result.rows == [
            (int(db.table("t").column_array("a").max()),)]
        assert result.metrics.cpu_units == pytest.approx(
            db.params.cpu_index_tuple_cost *
            Compression.HEAVY.cpu_factor)


class TestWhatIfAggregates:
    def test_estimate_works(self, db):
        what_if = db.what_if()
        estimate = what_if.estimate_statement(
            parse("SELECT COUNT(*) FROM t WHERE a = 3"),
            {IndexDef("t", ("a",))})
        assert estimate.access_path.kind == "index_seek"
        assert estimate.units > 0
