"""Unit tests for the SQL parser."""

import pytest

from repro.errors import SqlSyntaxError, SqlUnsupportedError
from repro.sqlengine.sql import parse
from repro.sqlengine.sql.ast import (Between, Comparison, Conjunction,
                                     CreateIndexStmt,
                                     CreateTableStmt, DeleteStmt,
                                     DropIndexStmt, DropTableStmt,
                                     InsertStmt, SelectStmt, UpdateStmt)


class TestSelect:
    def test_simple(self):
        stmt = parse("SELECT a FROM t")
        assert isinstance(stmt, SelectStmt)
        assert stmt.columns == ("a",)
        assert stmt.table == "t"
        assert stmt.where is None

    def test_star(self):
        assert parse("SELECT * FROM t").columns == ("*",)

    def test_multiple_columns(self):
        assert parse("SELECT a, b, c FROM t").columns == ("a", "b", "c")

    def test_where_equality(self):
        stmt = parse("SELECT a FROM t WHERE a = 5")
        assert stmt.where.predicates == (Comparison("a", "=", 5),)

    def test_where_conjunction(self):
        stmt = parse("SELECT a FROM t WHERE a = 5 AND b > 2 AND c <= 9")
        assert len(stmt.where.predicates) == 3
        assert stmt.where.predicates[1] == Comparison("b", ">", 2)

    def test_where_between(self):
        stmt = parse("SELECT a FROM t WHERE a BETWEEN 1 AND 10")
        assert stmt.where.predicates == (Between("a", 1, 10),)

    def test_not_equal_forms(self):
        s1 = parse("SELECT a FROM t WHERE a != 1")
        s2 = parse("SELECT a FROM t WHERE a <> 1")
        assert s1.where == s2.where

    def test_limit(self):
        assert parse("SELECT a FROM t LIMIT 10").limit == 10

    def test_string_literal_predicate(self):
        stmt = parse("SELECT a FROM t WHERE name = 'bob'")
        assert stmt.where.predicates[0].value == "bob"

    def test_float_literal(self):
        stmt = parse("SELECT a FROM t WHERE x > 2.5")
        assert stmt.where.predicates[0].value == 2.5

    def test_trailing_semicolon(self):
        assert parse("SELECT a FROM t;").table == "t"

    def test_missing_from_raises(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT a t")

    def test_trailing_garbage_raises(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT a FROM t extra")

    def test_missing_operator_raises(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT a FROM t WHERE a 5")

    def test_missing_literal_raises(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT a FROM t WHERE a =")

    def test_sql_round_trip(self):
        sql = "SELECT a, b FROM t WHERE a = 5 AND b BETWEEN 1 AND 3"
        assert parse(parse(sql).sql()) == parse(sql)


class TestInsert:
    def test_single_row(self):
        stmt = parse("INSERT INTO t (a, b) VALUES (1, 2)")
        assert isinstance(stmt, InsertStmt)
        assert stmt.rows == ((1, 2),)

    def test_multi_row(self):
        stmt = parse("INSERT INTO t (a) VALUES (1), (2), (3)")
        assert stmt.rows == ((1,), (2,), (3,))

    def test_arity_mismatch_raises(self):
        with pytest.raises(SqlSyntaxError):
            parse("INSERT INTO t (a, b) VALUES (1)")

    def test_string_values(self):
        stmt = parse("INSERT INTO t (name) VALUES ('x')")
        assert stmt.rows == (("x",),)


class TestUpdateDelete:
    def test_update(self):
        stmt = parse("UPDATE t SET a = 1, b = 2 WHERE c = 3")
        assert isinstance(stmt, UpdateStmt)
        assert stmt.assignments == (("a", 1), ("b", 2))
        assert stmt.where is not None

    def test_update_no_where(self):
        assert parse("UPDATE t SET a = 1").where is None

    def test_delete(self):
        stmt = parse("DELETE FROM t WHERE a = 1")
        assert isinstance(stmt, DeleteStmt)

    def test_delete_all(self):
        assert parse("DELETE FROM t").where is None


class TestDdl:
    def test_create_table(self):
        stmt = parse("CREATE TABLE t (a INT, b TEXT)")
        assert isinstance(stmt, CreateTableStmt)
        assert stmt.columns == (("a", "INT"), ("b", "TEXT"))

    def test_create_index(self):
        stmt = parse("CREATE INDEX ix ON t (a, b)")
        assert isinstance(stmt, CreateIndexStmt)
        assert stmt.columns == ("a", "b")

    def test_drop_index(self):
        stmt = parse("DROP INDEX ix")
        assert isinstance(stmt, DropIndexStmt)
        assert stmt.name == "ix"

    def test_drop_table(self):
        stmt = parse("DROP TABLE t")
        assert isinstance(stmt, DropTableStmt)

    def test_create_without_object_raises(self):
        with pytest.raises(SqlSyntaxError):
            parse("CREATE VIEW v")

    def test_drop_without_object_raises(self):
        with pytest.raises(SqlSyntaxError):
            parse("DROP a")


class TestErrors:
    def test_empty_input_raises(self):
        with pytest.raises(SqlSyntaxError):
            parse("")

    def test_unknown_statement_raises(self):
        with pytest.raises((SqlSyntaxError, SqlUnsupportedError)):
            parse("VALUES (1)")

    def test_error_carries_position(self):
        with pytest.raises(SqlSyntaxError) as exc:
            parse("SELECT a FROM t WHERE a ?")
        assert exc.value.position >= 0


class TestShapeTable:
    """``parse`` remembers one bind plan per literal-stripped shape."""

    @pytest.fixture(autouse=True)
    def empty_table(self, monkeypatch):
        from repro.sqlengine.sql import parser
        monkeypatch.setattr(parser, "_SHAPES", {})
        self.parser = parser

    def test_second_member_is_bound_not_tokenized(self, monkeypatch):
        first = parse("UPDATE t SET b = 1 WHERE a BETWEEN 2 AND 3")

        def no_lexing(sql):
            raise AssertionError(f"tokenized {sql!r}")
        monkeypatch.setattr(self.parser, "tokenize", no_lexing)
        second = parse("UPDATE t SET b = -4.5 WHERE a BETWEEN 'x' AND 7")
        assert second == UpdateStmt(
            table="t", assignments=(("b", -4.5),),
            where=Conjunction((Between("a", "x", 7),)))
        assert first.assignments == (("b", 1),)

    def test_ddl_and_comments_are_never_bound(self):
        parse("CREATE INDEX i1 ON t1 (c2)")
        parse("SELECT a FROM t WHERE a = 1 -- why 2")
        assert list(self.parser._SHAPES.values()) == [None, None]
        assert parse("SELECT a FROM t WHERE a = 3 -- why 4") == \
            parse("SELECT a FROM t WHERE a = 3")

    def test_table_stops_growing_at_its_cap(self, monkeypatch):
        monkeypatch.setattr(self.parser, "_MAX_SHAPES", 2)
        for column in "abcd":
            for value in (1, 2):
                stmt = parse(f"DELETE FROM t WHERE {column} = {value}")
                assert stmt == DeleteStmt("t", Conjunction(
                    (Comparison(column, "=", value),)))
        assert len(self.parser._SHAPES) == 2
