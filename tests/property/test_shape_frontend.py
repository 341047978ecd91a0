"""Property tests for the shape-keyed SQL front end.

``parse`` tokenizes and parses one statement per literal-stripped
*shape* and binds literals for the rest; template derivation reads a
statement's key straight off its literal texts when the shape has a
key plan. Neither shortcut may be observable:

(a) ``parse`` of a statement whose shape is already remembered equals
    the full parser's result — or raises the full parser's error;
(b) a template key read off the text equals the key a cold optimizer
    derives from the full parser's AST — or fails the same way — the
    returned representative costs like the statement itself, and a
    statistics refresh leaves nothing of the old epoch behind;
(c) where the literal regex and the lexer disagree on what the
    literals of an accepted text are, the shape is never bound.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParseError, SqlError, TypeMismatchError
from repro.sqlengine import Database, IndexDef
from repro.sqlengine.sql import parse, tokenize
from repro.sqlengine.sql import parser as parser_module
from repro.sqlengine.sql.lexer import literal_spans, literal_value
from repro.sqlengine.sql.parser import _Parser
from repro.sqlengine.whatif import WhatIfOptimizer
from repro.workload import Statement

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
# (b) template by shape
# ----------------------------------------------------------------------

COLUMNS = ("a", "b", "c", "d")
DOMAIN = 60


def _build_db(seed, domain):
    db = Database()
    db.create_table("t", [(c, "INTEGER") for c in COLUMNS])
    rng = np.random.default_rng(seed)
    db.bulk_load("t", {c: rng.integers(0, domain, 1_500)
                       for c in COLUMNS})
    return db


_DB = _build_db(5, DOMAIN)
#: Other statistics for the same schema: half the domain, so both
#: equality and range selectivities move.
_OTHER_STATS = {"t": _build_db(6, DOMAIN // 2).stats("t")}

CONFIGS = [frozenset(), frozenset({IndexDef("t", ("a",))}),
           frozenset({IndexDef("t", ("b", "a")),
                      IndexDef("t", ("c",))})]

plain_columns_st = st.sampled_from(COLUMNS)
values_st = st.one_of(
    st.integers(-5, DOMAIN + 5).map(repr),
    st.integers(0, DOMAIN).map(lambda n: f"+{n}"),
    st.floats(-5, DOMAIN + 5, allow_nan=False).map(repr),
    st.sampled_from(["'7'", "'it''s'", "-0", "5."]))


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
        limit = draw(st.booleans())
    elif kind == "update":
        prefix, suffix, limit = "UPDATE t SET b = 1, c = -2", "", False
    else:
        prefix, suffix, limit = "DELETE FROM t", "", False
    texts = []
    for _ in range(members):
        clauses = []
        for column, op in predicates:
            if op == "between":
                clauses.append(f"{column} BETWEEN {draw(values_st)} "
                               f"AND {draw(values_st)}")
            else:
                clauses.append(f"{column} {op} {draw(values_st)}")
        where = " WHERE " + " AND ".join(clauses) if clauses else ""
        tail = f" LIMIT {draw(st.integers(0, 9))}" if limit else ""
        texts.append(prefix + where + suffix + tail)
    return texts


def key_outcome(optimizer, source):
    """The template key ``optimizer`` gives ``source`` — a workload
    statement, or SQL text for the full parser and the AST path — or
    how deriving it failed. (A string compared with a number fails in
    the analysis, the same way on either path.)"""
    try:
        stmt = full_parse(source) if isinstance(source, str) else source
        return "ok", optimizer.statement_template(stmt).key
    except SqlError as exc:
        return (type(exc).__name__, str(exc),
                getattr(exc, "position", None))
    except TypeMismatchError as exc:
        return type(exc).__name__, str(exc), None


def warmed(texts):
    """An optimizer that has derived every text's template once."""
    parser_module._SHAPES.clear()
    warm = _DB.what_if()
    for sql in texts:
        key_outcome(warm, Statement(sql))
    return warm


class TestTemplateByShape:
    @given(texts=skeleton_members())
    @settings(max_examples=300, deadline=None)
    def test_text_path_keys_equal_a_cold_optimizers(self, texts):
        warm = warmed(texts[:1])
        for sql in texts + texts:
            assert key_outcome(warm, Statement(sql)) == \
                key_outcome(_DB.what_if(), sql)

    @given(texts=skeleton_members())
    @settings(max_examples=150, deadline=None)
    def test_representative_costs_like_the_member(self, texts):
        warm = warmed(texts)
        for sql in texts:
            try:
                template = warm.statement_template(Statement(sql))
            except (SqlError, TypeMismatchError):
                continue
            member = full_parse(sql)
            for config in CONFIGS:
                assert warm.estimate_template(
                    template, config).units == \
                    _DB.what_if().estimate_statement(
                        member, config).units

    @given(texts=skeleton_members())
    @settings(max_examples=150, deadline=None)
    def test_refresh_stats_forgets_the_old_epochs_templates(self, texts):
        warm = warmed(texts)
        warm.refresh_stats(_OTHER_STATS)
        assert not warm._templates
        cold = WhatIfOptimizer({"t": _DB.table("t").schema},
                               _OTHER_STATS, _DB.params)
        fresh = set()
        for sql in texts + texts:
            result = key_outcome(warm, Statement(sql))
            assert result == key_outcome(cold, sql)
            if result[0] == "ok":
                fresh.add(result[1])
        assert set(warm._templates) == fresh


FALL_THROUGHS = [
    # (a sibling of the same shape, the statement)
    ("SELECT a FROM t WHERE a BETWEEN 1 AND-0",
     "SELECT a FROM t WHERE a BETWEEN 1 AND-5"),
    ("SELECT a FROM t WHERE a = 1", "SELECT a FROM t WHERE a = 1e"),
    ("SELECT a FROM t WHERE a = 1", "SELECT a FROM t WHERE a = 1.5.3"),
    ("SELECT a FROM t WHERE a = 1 LIMIT 3",
     "SELECT a FROM t WHERE a = 1 LIMIT -1"),
    ("SELECT a FROM t WHERE a = 1 LIMIT 3",
     "SELECT a FROM t WHERE a = 1 LIMIT 2.5"),
    ("SELECT a FROM t WHERE a = 6 -- note 7",
     "SELECT a FROM t WHERE a = 5 -- note 7"),
    ("SELECT a FROM t WHERE a > 1 AND a < 9",
     "SELECT a FROM t WHERE a > 7 AND a < 3"),
    ("DELETE FROM t WHERE b BETWEEN 1 AND 2",
     "DELETE FROM t WHERE b BETWEEN 9 AND 3"),
]


@pytest.mark.parametrize("sibling,sql", FALL_THROUGHS)
def test_known_fall_throughs_take_the_ast_path(sibling, sql):
    """What the key plan cannot vouch for is the AST path's business:
    same key, or the same error type, message and position."""
    warm = warmed([sibling, sibling])
    statement = Statement(sql)
    result = key_outcome(warm, statement)
    assert result == key_outcome(_DB.what_if(), sql)
    assert result[0] != "ok" or statement._ast is not None


@pytest.mark.parametrize("first,second", [
    ("SELECT a FROM t WHERE a = 1 AND b != 2 LIMIT 3",
     "SELECT a FROM t WHERE a = 41 AND b != 17 LIMIT 3"),
    ("UPDATE t SET b = 1, c = -2 WHERE d = 5 AND a = 3",
     "UPDATE t SET b = 8, c = 9 WHERE d = 44 AND a = 7"),
    ("DELETE FROM t WHERE c = 5", "DELETE FROM t WHERE c = 6"),
    ("INSERT INTO t (a, b, c, d) VALUES (1, 2, 3, 4)",
     "INSERT INTO t (a, b, c, d) VALUES (5, 6, 7, 8)"),
])
def test_text_path_builds_no_ast(first, second):
    """The case the fall-throughs are the exceptions to."""
    warm = warmed([first])
    statement = Statement(second)
    assert key_outcome(warm, statement) == \
        key_outcome(_DB.what_if(), second)
    assert statement._ast is None
