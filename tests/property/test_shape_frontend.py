"""Property tests for the shape-keyed SQL front end.

``parse`` tokenizes and parses one statement per literal-stripped
*shape* and binds literals for the rest; template derivation analyses
one SELECT per separable *skeleton* and substitutes constants for the
rest. Neither shortcut may be observable:

(a) ``parse`` of a statement whose shape is already remembered equals
    the full parser's result — or raises the full parser's error;
(b) a ``QueryInfo`` bound from a skeleton equals ``analyze_select``
    field for field, and template keys agree with a cold optimizer's;
(c) where the literal regex and the lexer disagree on what the
    literals of an accepted text are, the shape is never bound.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.errors import ParseError, SqlError
from repro.sqlengine import Database
from repro.sqlengine.planner import analyze_select
from repro.sqlengine.sql import parse, tokenize
from repro.sqlengine.sql import parser as parser_module
from repro.sqlengine.sql.ast import SelectStmt
from repro.sqlengine.sql.lexer import literal_spans, literal_value
from repro.sqlengine.sql.parser import _Parser

# ----------------------------------------------------------------------
# statement texts: a token list with holes for literals, the gaps
# between tokens, and literal texts to fill the holes with
# ----------------------------------------------------------------------

HOLE = object()

columns_st = st.sampled_from(["a", "b", "c2", "d_3"])
tables_st = st.sampled_from(["t", "t1"])

numbers_st = st.one_of(
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.integers(0, 99).map(lambda n: f"+{n}"),
    st.floats(allow_nan=False, allow_infinity=False,
              width=32).map(repr),
    st.tuples(st.integers(-99, 99), st.sampled_from("eE"),
              st.integers(-9, 9)).map(lambda t: f"{t[0]}{t[1]}{t[2]}"),
    st.sampled_from(["-0", "-0.0", "+0", "5.", "007"]),
    st.sampled_from(["-0", "-0.0", "-1", "-2.5"]))
strings_st = st.text(alphabet="ab19 -'%_", max_size=6).map(
    lambda s: "'" + s.replace("'", "''") + "'")
malformed_st = st.sampled_from(["1.5.3", "1e", "2E+", "-3..1"])
literals_st = st.one_of(numbers_st, numbers_st, strings_st)
limits_st = st.one_of(*[st.integers(0, 50).map(str)] * 3, literals_st)


@st.composite
def where_tokens(draw):
    tokens = []
    for i in range(draw(st.integers(0, 3))):
        tokens.append("AND" if i else "WHERE")
        tokens.append(draw(columns_st))  # columns may repeat
        if draw(st.booleans()):
            tokens += ["BETWEEN", HOLE, "AND", HOLE]  # lo > hi allowed
        else:
            tokens += [draw(st.sampled_from(
                ["=", "!=", "<>", "<", "<=", ">", ">="])), HOLE]
    return tokens


@st.composite
def skeleton_tokens(draw):
    """``(tokens, limit hole index or None)`` of one statement."""
    kind = draw(st.sampled_from(["select", "select", "insert",
                                 "update", "delete"]))
    table = draw(tables_st)
    limit_hole = None
    if kind == "select":
        head = draw(st.sampled_from([
            ["*"], ["a"], ["a", ",", "c2"],
            ["COUNT", "(", "*", ")"], ["MAX", "(", "b", ")"]]))
        tokens = ["SELECT", *head, "FROM", table,
                  *draw(where_tokens())]
        if head[0] not in ("COUNT", "MAX") and draw(st.booleans()):
            tokens += ["ORDER", "BY", draw(columns_st)]
            if draw(st.booleans()):
                tokens.append("DESC")
        if draw(st.booleans()):
            tokens += ["LIMIT", HOLE]
            limit_hole = sum(1 for t in tokens if t is HOLE) - 1
    elif kind == "insert":
        arity = draw(st.integers(1, 3))
        names = ["a", "b", "c2"][:arity]
        tokens = ["INSERT", "INTO", table, "("]
        for i, name in enumerate(names):
            tokens += ([","] if i else []) + [name]
        tokens += [")", "VALUES"]
        for row in range(draw(st.integers(1, 3))):
            tokens += ([","] if row else []) + ["("]
            for i in range(arity):
                tokens += ([","] if i else []) + [HOLE]
            tokens.append(")")
    elif kind == "update":
        tokens = ["UPDATE", table, "SET"]
        for i in range(draw(st.integers(1, 2))):
            tokens += ([","] if i else []) + [draw(columns_st), "=", HOLE]
        tokens += draw(where_tokens())
    else:
        tokens = ["DELETE", "FROM", table, *draw(where_tokens())]
    if draw(st.booleans()):
        tokens.append(";")
    return tokens, limit_hole


def _is_word(token):
    return token.replace("_", "").isalnum()


@st.composite
def shape_members(draw, members=2):
    """``members`` texts of one shape: same tokens, same gaps (glued
    tokens like ``AND-5`` and ``a=1`` included), own literals, and an
    optional trailing comment."""
    tokens, limit_hole = draw(skeleton_tokens())
    gaps = []
    for token, after in zip(tokens, tokens[1:] + [""]):
        # words must stay apart; a symbol or a literal may touch
        glue = after is HOLE or not (
            token is not HOLE and _is_word(token) and _is_word(after))
        gaps.append(draw(st.sampled_from(
            [" ", "  ", "\n"] + ["", ""] * glue)))
    tail = draw(st.sampled_from(["", "", " -- note 5 'x", "--7"]))
    n_holes = sum(1 for t in tokens if t is HOLE)
    texts = []
    for _ in range(members):
        fill = [draw(limits_st if i == limit_hole else literals_st)
                for i in range(n_holes)]
        if fill and draw(st.integers(0, 7)) == 7:
            fill[draw(st.integers(0, n_holes - 1))] = draw(malformed_st)
        holes = iter(fill)
        parts = []
        for token, gap in zip(tokens, gaps):
            parts.append(next(holes) if token is HOLE else token)
            parts.append(gap)
        texts.append("".join(parts[:-1]) + tail)
    return texts


def outcome(function, sql):
    """What ``function(sql)`` did, comparably: the ``repr`` of the AST
    (``==`` would let ``1`` pass for ``1.0``) or the error."""
    try:
        return "ok", repr(function(sql))
    except SqlError as exc:
        return (type(exc).__name__, str(exc),
                getattr(exc, "position", None))


def full_parse(sql):
    return _Parser(sql).parse_statement()


class TestParseByShape:
    @given(texts=shape_members())
    @settings(max_examples=400, deadline=None)
    def test_bound_member_equals_full_parse(self, texts):
        sibling, target = texts
        parser_module._SHAPES.clear()
        outcome(parse, sibling)  # warms the table when it parses
        assert outcome(parse, target) == outcome(full_parse, target)
        try:
            parse(target)
        except ParseError as exc:
            assert exc.statement == target
        except SqlError:
            pass

    @given(texts=shape_members(members=3))
    @settings(max_examples=200, deadline=None)
    def test_table_state_never_shows(self, texts):
        """Whatever was parsed before — nothing, a sibling, the text
        itself — the result is the full parser's."""
        parser_module._SHAPES.clear()
        for sql in texts + texts[::-1]:
            assert outcome(parse, sql) == outcome(full_parse, sql)

    @given(texts=shape_members(members=1))
    @settings(max_examples=400, deadline=None)
    def test_regex_and_lexer_agree_or_shape_is_never_bound(self, texts):
        sql, = texts
        parser_module._SHAPES.clear()
        try:
            reference = full_parse(sql)
        except SqlError:
            return
        spans = literal_spans(sql)
        lexed = [(t.position, t.kind, t.text) for t in tokenize(sql)
                 if t.kind in ("NUMBER", "STRING")]
        agree = len(spans) == len(lexed) and all(
            start == position and
            (source == text if kind == "NUMBER"
             else source[0] == "'" and literal_value(source) == text)
            for (start, source), (position, kind, text)
            in zip(spans, lexed))
        assert repr(parse(sql)) == repr(reference)
        shape, literals = parser_module.split_literals(sql)
        plan = parser_module._SHAPES[shape]
        if not agree:
            assert plan is None
        if plan is not None:
            assert agree
            assert repr(plan.bind(literals)) == repr(reference)


def test_known_disagreements_are_covered():
    """The cases the strategies above are there to reach."""
    parser_module._SHAPES.clear()
    # a sign glued to a keyword belongs to the number, in both readers
    between = parse("SELECT a FROM t WHERE a BETWEEN 1 AND-0")
    assert between.where.predicates[0].hi == 0
    glued = parse("SELECT a FROM t WHERE a BETWEEN 1 AND-5")
    assert glued.where.predicates[0].hi == -5
    # digits inside identifiers and strings are not literals
    shape, literals = parser_module.split_literals(
        "SELECT c2 FROM t1 WHERE c2 = '3 -- 4' AND d_3 = 5")
    assert shape == ("SELECT c2 FROM t1 WHERE c2 = ", " AND d_3 = ", "")
    assert literals == ["'3 -- 4'", "5"]
    # a comment makes the shape unbindable, not wrong
    sql = "SELECT a FROM t WHERE a = 5 -- note 7"
    assert parse(sql) == full_parse(sql)
    assert parser_module._SHAPES[
        parser_module.split_literals(sql)[0]] is None


# ----------------------------------------------------------------------
# (b) analysis by skeleton
# ----------------------------------------------------------------------

COLUMNS = ("a", "b", "c", "d")
DOMAIN = 60


def _build_db():
    db = Database()
    db.create_table("t", [(c, "INTEGER") for c in COLUMNS])
    rng = np.random.default_rng(5)
    db.bulk_load("t", {c: rng.integers(0, DOMAIN, 1_500)
                       for c in COLUMNS})
    return db


_DB = _build_db()

plain_columns_st = st.sampled_from(COLUMNS)
values_st = st.one_of(st.integers(-5, DOMAIN + 5),
                      st.floats(-5, DOMAIN + 5, allow_nan=False))


@st.composite
def skeleton_members(draw, members=3):
    """SQL texts of one skeleton: separable (distinct columns, one
    comparison each) or not (BETWEEN, repeated columns), as SELECT,
    UPDATE or DELETE."""
    kind = draw(st.sampled_from(["select", "select", "update",
                                 "delete"]))
    predicates = draw(st.lists(
        st.tuples(plain_columns_st,
                  st.sampled_from(["=", "!=", "<", "<=", ">", ">=",
                                   "between"])),
        max_size=4))
    if kind == "select":
        head = draw(st.sampled_from(
            ["*", "a", "b, d", "COUNT(*)", "MIN(c)"]))
        prefix = f"SELECT {head} FROM t"
        suffix = ""
        if "(" not in head and draw(st.booleans()):
            suffix += f" ORDER BY {draw(plain_columns_st)}"
        if draw(st.booleans()):
            suffix += f" LIMIT {draw(st.integers(0, 9))}"
    elif kind == "update":
        prefix, suffix = "UPDATE t SET b = 1", ""
    else:
        prefix, suffix = "DELETE FROM t", ""
    texts = []
    for _ in range(members):
        clauses = []
        for column, op in predicates:
            if op == "between":
                clauses.append(f"{column} BETWEEN {draw(values_st)!r} "
                               f"AND {draw(values_st)!r}")
            else:
                clauses.append(f"{column} {op} {draw(values_st)!r}")
        where = " WHERE " + " AND ".join(clauses) if clauses else ""
        texts.append(prefix + where + suffix)
    return texts


class TestAnalyseBySkeleton:
    @given(texts=skeleton_members())
    @settings(max_examples=300, deadline=None)
    def test_bound_query_info_equals_analyze_select(self, texts):
        optimizer = _DB.what_if()
        schema = _DB.table("t").schema
        for sql in texts:
            stmt = parse(sql)
            if not isinstance(stmt, SelectStmt):  # the DML probe
                stmt = SelectStmt(table="t", where=stmt.where,
                                  columns=tuple(schema.column_names))
            bound = optimizer._template_info(stmt)
            reference = analyze_select(stmt, schema)
            for field in dataclasses.fields(reference):
                assert getattr(bound, field.name) == \
                    getattr(reference, field.name), field.name
            assert list(bound.eq_predicates.items()) == \
                list(reference.eq_predicates.items())
            assert list(bound.range_predicates.items()) == \
                list(reference.range_predicates.items())

    @given(texts=skeleton_members())
    @settings(max_examples=300, deadline=None)
    def test_template_keys_equal_a_cold_optimizers(self, texts):
        warm = _DB.what_if()
        for sql in texts:
            cold = _DB.what_if()
            assert warm.statement_template(parse(sql)).key == \
                cold.statement_template(full_parse(sql)).key
        assert not any(info.unsatisfiable
                       for info in warm._skeleton_info.values())
