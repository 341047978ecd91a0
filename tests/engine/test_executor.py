"""Unit tests for the executor: correctness against a brute-force
oracle and sane metering."""

import numpy as np
import pytest

from repro.sqlengine import Database, IndexDef


@pytest.fixture(scope="module")
def db():
    db = Database()
    db.create_table("t", [("a", "INTEGER"), ("b", "INTEGER"),
                          ("c", "INTEGER"), ("d", "INTEGER")])
    rng = np.random.default_rng(99)
    db.bulk_load("t", {c: rng.integers(0, 200, 5000) for c in "abcd"})
    db.execute("CREATE INDEX ix_a ON t (a)")
    db.execute("CREATE INDEX ix_ab2 ON t (a, b)")
    db.execute("CREATE INDEX ix_cd ON t (c, d)")
    return db


def oracle(db, predicate, columns):
    arrays = {c: db.table("t").column_array(c) for c in "abcd"}
    valid = db.table("t").valid_mask()
    mask = valid & predicate(arrays)
    rids = np.nonzero(mask)[0]
    return sorted(tuple(int(arrays[c][r]) for c in columns)
                  for r in rids)


class TestSelectCorrectness:
    def test_point_query_via_seek(self, db):
        got = sorted(db.query("SELECT a, b FROM t WHERE a = 117"))
        want = oracle(db, lambda v: v["a"] == 117, ["a", "b"])
        assert got == want

    def test_point_query_on_unindexed_column(self, db):
        got = sorted(db.query("SELECT d FROM t WHERE b = 42"))
        want = oracle(db, lambda v: v["b"] == 42, ["d"])
        assert got == want

    def test_composite_seek(self, db):
        got = sorted(db.query(
            "SELECT a, b FROM t WHERE a = 10 AND b = 20"))
        want = oracle(db, lambda v: (v["a"] == 10) & (v["b"] == 20),
                      ["a", "b"])
        assert got == want

    def test_seek_with_range(self, db):
        got = sorted(db.query(
            "SELECT a, b FROM t WHERE a = 10 AND b BETWEEN 5 AND 150"))
        want = oracle(
            db, lambda v: (v["a"] == 10) & (v["b"] >= 5) &
            (v["b"] <= 150), ["a", "b"])
        assert got == want

    def test_leading_range(self, db):
        got = sorted(db.query("SELECT a FROM t WHERE a < 3"))
        want = oracle(db, lambda v: v["a"] < 3, ["a"])
        assert got == want

    def test_covering_index_only_scan(self, db):
        result = db.execute("SELECT b FROM t WHERE b = 7")
        # b alone: no seekable index, but I(a,b) covers it.
        assert result.access_path.kind in ("index_only_scan",
                                           "full_scan")
        got = sorted(tuple(r) for r in result.rows)
        assert got == oracle(db, lambda v: v["b"] == 7, ["b"])

    def test_conjunction_across_indexes(self, db):
        got = sorted(db.query(
            "SELECT a, c FROM t WHERE c = 5 AND d > 100"))
        want = oracle(db, lambda v: (v["c"] == 5) & (v["d"] > 100),
                      ["a", "c"])
        assert got == want

    def test_neq_predicate(self, db):
        got = sorted(db.query("SELECT a FROM t WHERE a = 10 AND b != 3"))
        want = oracle(db, lambda v: (v["a"] == 10) & (v["b"] != 3),
                      ["a"])
        assert got == want

    def test_no_match(self, db):
        assert db.query("SELECT a FROM t WHERE a = 99999") == []

    def test_limit(self, db):
        rows = db.query("SELECT a FROM t LIMIT 5")
        assert len(rows) == 5

    def test_limit_zero(self, db):
        assert db.query("SELECT a FROM t LIMIT 0") == []

    def test_select_star(self, db):
        rows = db.query("SELECT * FROM t WHERE a = 117")
        want = oracle(db, lambda v: v["a"] == 117,
                      ["a", "b", "c", "d"])
        assert sorted(tuple(r) for r in rows) == want


class TestMetering:
    def test_seek_cheaper_than_scan(self, db):
        seek = db.execute("SELECT a FROM t WHERE a = 117")
        scan = db.execute("SELECT b FROM t WHERE d = 42")
        assert seek.access_path.kind == "index_seek"
        assert seek.units(db.params) < scan.units(db.params)

    def test_full_scan_charges_all_pages(self, db):
        result = db.execute("SELECT b FROM t WHERE d = 42")
        assert result.access_path.kind == "full_scan"
        assert result.metrics.page_reads >= db.table("t").n_pages

    def test_rows_returned_tracked(self, db):
        result = db.execute("SELECT a FROM t WHERE a = 117")
        assert result.metrics.rows_returned == len(result.rows)


class TestDml:
    @pytest.fixture
    def wdb(self):
        db = Database()
        db.create_table("t", [("a", "INTEGER"), ("b", "INTEGER"),
                              ("c", "INTEGER"), ("d", "INTEGER")])
        rng = np.random.default_rng(5)
        db.bulk_load("t", {c: rng.integers(0, 100, 1000)
                           for c in "abcd"})
        db.execute("CREATE INDEX ix_a ON t (a)")
        return db

    def test_insert_visible_via_index(self, wdb):
        wdb.execute("INSERT INTO t (a, b, c, d) VALUES (5555, 1, 2, 3)")
        rows = wdb.query("SELECT a, b FROM t WHERE a = 5555")
        assert rows == [(5555, 1)]

    def test_insert_multi_row(self, wdb):
        before = wdb.table("t").nrows
        wdb.execute(
            "INSERT INTO t (a, b, c, d) VALUES (1,1,1,1), (2,2,2,2)")
        assert wdb.table("t").nrows == before + 2

    def test_insert_missing_column_raises(self, wdb):
        from repro.errors import PlanningError
        with pytest.raises(PlanningError):
            wdb.execute("INSERT INTO t (a) VALUES (1)")

    def test_delete_removes_from_index(self, wdb):
        n = len(wdb.query("SELECT a FROM t WHERE a = 50"))
        assert n > 0
        result = wdb.execute("DELETE FROM t WHERE a = 50")
        assert result.metrics.rows_returned == n
        assert wdb.query("SELECT a FROM t WHERE a = 50") == []

    def test_update_moves_index_entries(self, wdb):
        n = len(wdb.query("SELECT a FROM t WHERE a = 51"))
        assert n > 0
        wdb.execute("UPDATE t SET a = 5151 WHERE a = 51")
        assert wdb.query("SELECT a FROM t WHERE a = 51") == []
        assert len(wdb.query("SELECT a FROM t WHERE a = 5151")) == n

    def test_update_with_residual_predicate(self, wdb):
        want = oracle(wdb, lambda v: (v["a"] == 52) & (v["b"] > 50),
                      ["a"])
        result = wdb.execute("UPDATE t SET d = 777 WHERE a = 52 AND "
                             "b > 50")
        assert result.metrics.rows_returned == len(want)
        got = wdb.query("SELECT a FROM t WHERE a = 52 AND b > 50")
        rows_d = wdb.query("SELECT d FROM t WHERE a = 52 AND b > 50")
        assert all(r == (777,) for r in rows_d)

    def test_delete_all(self, wdb):
        wdb.execute("DELETE FROM t")
        assert wdb.table("t").nrows == 0
