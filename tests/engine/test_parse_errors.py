"""Typed parse errors: every malformed statement raises a
:class:`~repro.errors.ParseError` carrying the statement text and the
failing position, renderable as a caret excerpt."""

import pytest

from repro.errors import ParseError, SqlError, SqlSyntaxError
from repro.sqlengine.sql import parse
from repro.sqlengine.sql import parser as parser_module

MALFORMED = [
    "SELECT",
    "SELECT FROM t",
    "SELECT a FROM",
    "SELECT a FROM t WHERE",
    "SELECT a FROM t WHERE a >",
    "SELECT a FROM t WHERE a ! 3",
    "SELECT a FROM t LIMIT -1",
    "SELECT a FROM t ORDER BY",
    "INSERT INTO t (a) VALUES",
    "INSERT INTO t (a) VALUES (1",
    "UPDATE t SET WHERE a = 1",
    "DELETE FROM",
    "CREATE GARBAGE x",
    "DROP GARBAGE x",
    "SELECT a FROM t WHERE a = 'unterminated",
    "SELECT a FROM t WHERE a = @",
    "SELECT a FROM t WHERE a = 1.5.3",
    "SELECT a FROM t WHERE a = 1e",
    "SELECT a FROM t LIMIT 5.0",
]

#: (well-formed first member, malformed second member of its shape)
SHAPE_SIBLINGS = [
    ("SELECT a FROM t WHERE a = 1", "SELECT a FROM t WHERE a = 1.5.3"),
    ("SELECT a FROM t WHERE a = 1", "SELECT a FROM t WHERE a = 1e"),
    ("SELECT a FROM t LIMIT 5", "SELECT a FROM t LIMIT 5.0"),
    ("SELECT a FROM t LIMIT 5", "SELECT a FROM t LIMIT -1"),
    ("SELECT a FROM t LIMIT 5", "SELECT a FROM t LIMIT 'x'"),
    ("INSERT INTO t (a, b) VALUES (1, 2)",
     "INSERT INTO t (a, b) VALUES (1, 2E+)"),
]


@pytest.mark.parametrize("sql", MALFORMED)
def test_malformed_sql_raises_parse_error(sql):
    with pytest.raises(ParseError) as info:
        parse(sql)
    exc = info.value
    assert exc.statement == sql
    assert isinstance(exc, SqlError)


@pytest.mark.parametrize("sql", MALFORMED)
def test_parse_error_position_is_inside_statement(sql):
    with pytest.raises(ParseError) as info:
        parse(sql)
    # Position may point one past the end (unexpected end of input),
    # but never outside that.
    assert 0 <= info.value.position <= len(sql)


def test_malformed_numbers_are_syntax_errors_with_a_position():
    sql = "SELECT a FROM t WHERE a = 1.5.3"
    with pytest.raises(SqlSyntaxError) as info:
        parse(sql)
    assert info.value.position == sql.index("1.5.3")
    sql = "SELECT a FROM t LIMIT 5.0"
    with pytest.raises(SqlSyntaxError) as info:
        parse(sql)
    assert info.value.position == sql.index("5.0")


def _error_of(sql):
    with pytest.raises(ParseError) as info:
        parse(sql)
    exc = info.value
    return type(exc), str(exc), exc.position, exc.statement


@pytest.mark.parametrize("first, malformed", SHAPE_SIBLINGS)
def test_malformed_member_of_a_cached_shape_raises_the_same_error(
        monkeypatch, first, malformed):
    monkeypatch.setattr(parser_module, "_SHAPES", {})
    cold = _error_of(malformed)
    assert not parser_module._SHAPES  # failures are never remembered
    parse(first)
    assert len(parser_module._SHAPES) == 1
    assert parser_module.split_literals(first)[0] == \
        parser_module.split_literals(malformed)[0]
    assert _error_of(malformed) == cold
    assert cold[3] == malformed


def test_excerpt_points_at_offending_token():
    sql = "SELECT a FROM t WHERE a ! 3"
    with pytest.raises(ParseError) as info:
        parse(sql)
    excerpt = info.value.excerpt()
    lines = excerpt.splitlines()
    assert lines[0] == sql
    assert lines[1].index("^") == sql.index("!")


def test_lexer_error_carries_statement_through_parse():
    sql = "SELECT a FROM t WHERE a = @"
    with pytest.raises(ParseError) as info:
        parse(sql)
    assert info.value.statement == sql
    assert info.value.position == sql.index("@")


def test_sql_syntax_error_is_parse_error():
    # Back-compat: existing callers catching SqlSyntaxError keep
    # working, and code catching the new ParseError sees both.
    assert issubclass(SqlSyntaxError, ParseError)
    with pytest.raises(SqlSyntaxError):
        parse("SELECT FROM t")


def test_excerpt_degrades_without_statement():
    exc = ParseError("bad", position=3)
    assert exc.excerpt() == ""
