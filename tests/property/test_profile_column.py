"""Property tests for the profile column read off a statement's shape.

``segment_profile`` needs one fact per statement: the single column a
point query's WHERE touches (``_queried_column``). When ``parse`` would
bind the statement from its literals alone, the column is read off the
shape's stored AST (``shape_statement``) and nothing is parsed;
otherwise it is read off the statement's own AST, and a statement that
does not parse profiles as ``<other>``. The two routes must never
disagree, whatever the shape table holds: nothing (cold), the
statement's siblings (warm), or as many shapes as it will keep.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SqlError
from repro.sqlengine.sql import parser as parser_module
from repro.sqlengine.sql.ast import SelectStmt
from repro.sqlengine.sql.parser import _Parser, shape_statement
from repro.workload import Segment, Statement, summarize_segment
from repro.workload.analysis import _queried_column, segment_profile


def ast_route(sql):
    """The column off the full parser's AST — the reference."""
    try:
        ast = _Parser(sql).parse_statement()
    except SqlError:
        return None
    if not isinstance(ast, SelectStmt) or ast.where is None:
        return None
    columns = {p.column for p in ast.where.predicates}
    return next(iter(columns)) if len(columns) == 1 else None


def reference_profile(texts):
    counts = {}
    for sql in texts:
        key = ast_route(sql) or "<other>"
        counts[key] = counts.get(key, 0.0) + 1
    return {column: n / len(texts) for column, n in counts.items()}


# ----------------------------------------------------------------------
# statements of one shape, each with its own literals
# ----------------------------------------------------------------------

columns_st = st.sampled_from(["a", "b", "c2"])
numbers_st = st.one_of(
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.floats(-1e3, 1e3, allow_nan=False).map(repr),
    st.sampled_from(["+7", "-0", "5.", "2e3", "007"]))
strings_st = st.text(alphabet="ab1 '-", max_size=5).map(
    lambda s: "'" + s.replace("'", "''") + "'")
malformed_st = st.sampled_from(["1.5.3", "1e", "2E+"])
literals_st = st.one_of(numbers_st, numbers_st, strings_st)
limits_st = st.sampled_from(["0", "3", "10", "-1", "2.5", "1e", "-0"])
comments_st = st.sampled_from(["", "", "", " -- note 5 'x'",
                               " --7"])


@st.composite
def shape_members(draw, members=3):
    """``members`` texts of one shape: a SELECT, UPDATE or DELETE with
    one or two predicates (``BETWEEN`` included, columns may repeat),
    or an INSERT; an optional LIMIT and comment; one literal now and
    then malformed."""
    kind = draw(st.sampled_from(["select", "select", "select", "update",
                                 "delete", "insert"]))
    predicates = draw(st.lists(
        st.tuples(columns_st, st.sampled_from(
            ["=", "=", "!=", "<", ">=", "between"])),
        min_size=1, max_size=2))
    head = draw(st.sampled_from(["*", "a", "b, c2"]))
    limit = kind == "select" and draw(st.booleans())
    comment = draw(comments_st)
    texts = []
    for _ in range(members):
        holes = []

        def hole(strategy=literals_st):
            holes.append(draw(strategy))
            return len(holes) - 1

        clauses = []
        for column, op in predicates:
            if op == "between":
                clauses.append((column, "BETWEEN", hole(), "AND",
                                hole()))
            else:
                clauses.append((column, op, hole()))
        if kind == "insert":
            parts = ["INSERT INTO t (a, b) VALUES (", hole(), ", ",
                     hole(), ")"]
        else:
            if kind == "select":
                parts = [f"SELECT {head} FROM t"]
            elif kind == "update":
                parts = ["UPDATE t SET b = ", hole()]
            else:
                parts = ["DELETE FROM t"]
            for i, clause in enumerate(clauses):
                parts.append(" AND " if i else " WHERE ")
                for piece in clause:
                    parts += [piece, " "]
                parts.pop()
            if limit:
                parts += [" LIMIT ", hole(limits_st)]
        if draw(st.integers(0, 5)) == 5:
            holes[draw(st.integers(0, len(holes) - 1))] = \
                draw(malformed_st)
        texts.append("".join(holes[p] if isinstance(p, int) else p
                             for p in parts) + comment)
    return texts


def would_bind(sql):
    shape, literals = parser_module.split_literals(sql)
    plan = parser_module._SHAPES.get(shape)
    return plan is not None and plan.bind(literals) is not None


def check_routes(texts):
    """Both routes agree on every text, the shape route builds no
    AST, and it is taken exactly when ``parse`` would bind."""
    for sql in texts:
        statement = Statement(sql)
        bound = shape_statement(sql) is not None
        assert bound == would_bind(sql)
        assert _queried_column(statement) == ast_route(sql)
        if bound:
            assert statement._ast is None


class TestShapeRouteEqualsAstRoute:
    @given(texts=shape_members())
    @settings(max_examples=300, deadline=None)
    def test_cold_then_warm(self, texts):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(parser_module, "_SHAPES", {})
            check_routes(texts)  # cold: the first of the shape parses
            check_routes(texts)  # warm: siblings bind where they can
            check_routes(texts[::-1])

    @given(texts=shape_members())
    @settings(max_examples=150, deadline=None)
    def test_profile_of_a_phase(self, texts):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(parser_module, "_SHAPES", {})
            statements = [Statement(sql) for sql in texts + texts]
            segment = Segment(tuple(statements), start=0)
            expected = reference_profile(texts + texts)
            assert segment_profile(segment).frequencies == expected
            assert segment_profile(
                summarize_segment(segment)).frequencies == expected

    @given(texts=shape_members())
    @settings(max_examples=100, deadline=None)
    def test_shape_beyond_the_table_limit(self, texts):
        full = {(f"shape {i}",): None
                for i in range(parser_module._MAX_SHAPES)}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(parser_module, "_SHAPES", full)
            for sql in texts + texts:
                assert shape_statement(sql) is None
                assert _queried_column(Statement(sql)) == ast_route(sql)
            assert len(parser_module._SHAPES) == \
                parser_module._MAX_SHAPES


@pytest.mark.parametrize("sibling, sql, column, bound", [
    ("SELECT a FROM t WHERE a = 1", "SELECT a FROM t WHERE a = 2",
     "a", True),
    ("SELECT * FROM t WHERE b BETWEEN 1 AND 9 LIMIT 3",
     "SELECT * FROM t WHERE b BETWEEN 'x''y' AND 4 LIMIT 0", "b", True),
    ("SELECT a FROM t WHERE a = 1 AND b = 2",
     "SELECT a FROM t WHERE a = 5 AND b = 6", None, True),
    ("SELECT a FROM t WHERE a = 1", "SELECT a FROM t WHERE a = 1.5.3",
     None, False),
    ("SELECT a FROM t WHERE a = 1", "SELECT a FROM t WHERE a = 1e",
     None, False),
    ("SELECT a FROM t WHERE a = 1 LIMIT 3",
     "SELECT a FROM t WHERE a = 1 LIMIT -1", None, False),
    ("SELECT a FROM t WHERE a = 1 LIMIT 3",
     "SELECT a FROM t WHERE a = 1 LIMIT 2.5", None, False),
    ("SELECT a FROM t WHERE a = 6 -- note 7",
     "SELECT a FROM t WHERE a = 5 -- note 7", "a", False),
    ("UPDATE t SET b = 1 WHERE a = 2", "UPDATE t SET b = 3 WHERE a = 4",
     None, True),
])
def test_known_routes(monkeypatch, sibling, sql, column, bound):
    """The cases the strategies are there to reach: the shape route
    for bindable siblings, the AST route for what only the full parser
    can tell (malformed numbers, a bad LIMIT, a comment)."""
    monkeypatch.setattr(parser_module, "_SHAPES", {})
    _queried_column(Statement(sibling))
    statement = Statement(sql)
    assert (shape_statement(sql) is not None) == bound
    assert _queried_column(statement) == column == ast_route(sql)
    if bound:
        assert statement._ast is None
