"""Recursive-descent parser producing the AST in :mod:`.ast`."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ...errors import ParseError, SqlSyntaxError, SqlUnsupportedError
from ..types import Value
from .ast import (AGGREGATE_FUNCS, Aggregate, Between, Comparison,
                  Conjunction, CreateIndexStmt, CreateTableStmt,
                  DeleteStmt, DropIndexStmt, DropTableStmt, InsertStmt,
                  OrderBy, SelectStmt, Statement, UpdateStmt)
from .lexer import (Token, literal_spans, literal_value, number_value,
                    split_literals, tokenize)

#: Shapes remembered by :func:`parse`; past this many, new shapes are
#: parsed in full every time.
_MAX_SHAPES = 4096

#: shape -> its bind plan, or ``None`` for a shape whose statements
#: must always be parsed in full (DDL, comments, a failed self-check).
_SHAPES: Dict[Tuple[str, ...], Optional["_BindPlan"]] = {}


def parse(sql: str) -> Statement:
    """Parse one SQL statement (an optional trailing ``;`` is allowed).

    Statements are parsed once per *shape* (the text with its literals
    stripped): the first of a shape is tokenized and parsed, the rest
    get their literals bound into its AST. Whatever the binder cannot
    vouch for is parsed in full, so results and errors are those of
    the full parser.

    Raises:
        ParseError: on malformed SQL. The exception carries the full
            statement text and the character offset of the offending
            token (``exc.statement`` / ``exc.position``), and
            ``exc.excerpt()`` renders a caret pointing at it.
    """
    shape, literals = split_literals(sql)
    plan = _SHAPES.get(shape)
    if plan is not None:
        statement = plan.bind(literals)
        if statement is not None:
            return statement
    try:
        parser = _Parser(sql)
        statement = parser.parse_statement()
    except ParseError as exc:
        # Lexer and parser sites raise with a position only; the full
        # statement is attached here, once, at the public entry point.
        exc.statement = sql
        raise
    if shape not in _SHAPES and len(_SHAPES) < _MAX_SHAPES:
        _SHAPES[shape] = _BindPlan.compile(statement, parser.tokens, sql)
    return statement


def shape_statement(sql: str) -> Optional[Statement]:
    """The AST stored for ``sql``'s shape when :func:`parse` would bind
    ``sql`` from its literals alone, else ``None`` (:func:`parse` then
    parses in full, and may raise).

    The AST is the shape's first member, with *its* literal values:
    read off it only what the literals do not decide — the statement
    kind, table, columns and predicate columns. The answer costs one
    literal split and the binder's literal checks, no AST."""
    shape, literals = split_literals(sql)
    plan = _SHAPES.get(shape)
    if plan is None or plan.values(literals) is None:
        return None
    return plan.statement


def binds_shape(shape: Tuple[str, ...]) -> bool:
    """Whether :func:`parse` binds statements of ``shape`` from their
    literals alone. The literal texts :func:`split_literals` gives for
    such a statement are then exactly its NUMBER/STRING tokens, and
    literal *i* is slot *i* of the AST in source order: UPDATE
    assignments, then WHERE predicates (two for a ``BETWEEN``), then
    LIMIT; INSERT values row by row."""
    return _SHAPES.get(shape) is not None


class _BindPlan:
    """How to build a statement of one shape from its literals alone.

    Equal shape means identical text between the literals, hence the
    same tokens there and the same AST up to literal values; the plan
    holds the first member's AST and rebuilds only the nodes that
    carry literals, in source order.
    """

    __slots__ = ("statement",)

    def __init__(self, statement: Statement):
        self.statement = statement

    @classmethod
    def compile(cls, statement: Statement, tokens: Sequence[Token],
                sql: str) -> Optional["_BindPlan"]:
        """The plan for the shape of ``statement`` (parsed from ``sql``
        into ``tokens``), or ``None`` unless the literal regex and the
        lexer read the same literals at the same places and binding
        them reproduces ``statement``."""
        if not isinstance(statement, (SelectStmt, InsertStmt,
                                      UpdateStmt, DeleteStmt)):
            return None
        spans = literal_spans(sql)
        lexed = [t for t in tokens if t.kind in ("NUMBER", "STRING")]
        if len(spans) != len(lexed):
            return None
        for (position, source), token in zip(spans, lexed):
            if position != token.position:
                return None
            if token.kind == "NUMBER" and source != token.text:
                return None
            if token.kind == "STRING" and (
                    source[0] != "'" or
                    literal_value(source) != token.text):
                return None
        plan = cls(statement)
        bound = plan.bind([source for _, source in spans])
        return plan if bound == statement else None

    def values(self, literals: Sequence[str]) -> Optional[List[Value]]:
        """The values of a member's literal texts, or ``None`` when
        only the full parser can tell (a literal that fails conversion,
        a LIMIT that is not a non-negative integer) — the one check
        behind :meth:`bind` and :func:`shape_statement`."""
        try:
            values = [literal_value(source) for source in literals]
        except SqlSyntaxError:
            return None
        if isinstance(self.statement, SelectStmt) and \
                self.statement.limit is not None:
            # LIMIT is a SELECT's last literal.
            limit = values[-1]
            if not isinstance(limit, int) or limit < 0:
                return None
        return values

    def bind(self, literals: Sequence[str]) -> Optional[Statement]:
        """The statement these literals spell, or ``None`` when only
        the full parser can tell (it then raises what it always
        raised, with a position)."""
        checked = self.values(literals)
        if checked is None:
            return None
        values = iter(checked)
        base = self.statement
        if isinstance(base, SelectStmt):
            where = _bind_where(base.where, values)
            limit = None if base.limit is None else next(values)
            return SelectStmt(table=base.table, columns=base.columns,
                              where=where, limit=limit,
                              aggregates=base.aggregates,
                              order_by=base.order_by,
                              group_by=base.group_by)
        if isinstance(base, InsertStmt):
            arity = len(base.columns)
            return InsertStmt(
                table=base.table, columns=base.columns,
                rows=tuple(tuple(next(values) for _ in range(arity))
                           for _ in base.rows))
        if isinstance(base, UpdateStmt):
            assignments = tuple((column, next(values))
                                for column, _ in base.assignments)
            return UpdateStmt(table=base.table, assignments=assignments,
                              where=_bind_where(base.where, values))
        return DeleteStmt(table=base.table,
                          where=_bind_where(base.where, values))


def _bind_where(where: Optional[Conjunction],
                values: Iterator[Value]) -> Optional[Conjunction]:
    if where is None:
        return None
    return Conjunction(tuple(
        Between(p.column, next(values), next(values))
        if isinstance(p, Between)
        else Comparison(p.column, p.op, next(values))
        for p in where.predicates))


class _Parser:
    def __init__(self, sql: str):
        self.sql = sql
        self.tokens = tokenize(sql)
        self.pos = 0

    # -- token plumbing -------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.current
        if token.kind != "EOF":
            self.pos += 1
        return token

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self.current
        if token.kind != kind or (text is not None and token.text != text):
            wanted = text or kind
            raise SqlSyntaxError(
                f"expected {wanted}, found {token.text or 'end of input'!r}",
                token.position)
        return self.advance()

    def accept(self, kind: str, text: Optional[str] = None) -> bool:
        token = self.current
        if token.kind == kind and (text is None or token.text == text):
            self.advance()
            return True
        return False

    # -- grammar --------------------------------------------------------

    def parse_statement(self) -> Statement:
        token = self.current
        if token.kind != "KEYWORD":
            raise SqlSyntaxError(
                f"expected a statement, found {token.text!r}",
                token.position)
        handlers = {
            "SELECT": self._select,
            "INSERT": self._insert,
            "UPDATE": self._update,
            "DELETE": self._delete,
            "CREATE": self._create,
            "DROP": self._drop,
        }
        if token.text not in handlers:
            raise SqlUnsupportedError(
                f"unsupported statement {token.text}")
        statement = handlers[token.text]()
        self.accept("SYMBOL", ";")
        self.expect("EOF")
        return statement

    def _select(self) -> SelectStmt:
        self.expect("KEYWORD", "SELECT")
        columns: List[str] = []
        aggregates: List[Aggregate] = []
        if self.accept("SYMBOL", "*"):
            columns = ["*"]
        else:
            self._select_item(columns, aggregates)
            while self.accept("SYMBOL", ","):
                self._select_item(columns, aggregates)
        self.expect("KEYWORD", "FROM")
        table = self.expect("IDENT").text
        where = self._optional_where()
        group_by = None
        if self.accept("KEYWORD", "GROUP"):
            self.expect("KEYWORD", "BY")
            group_by = self.expect("IDENT").text
        if columns and aggregates:
            # Mixing is only legal as "SELECT <group col>, aggs ...
            # GROUP BY <group col>".
            if group_by is None or columns != [group_by]:
                raise SqlUnsupportedError(
                    "plain columns can only join aggregates as the "
                    "GROUP BY column")
            columns = []
        elif group_by is not None and not aggregates:
            raise SqlUnsupportedError(
                "GROUP BY requires aggregate functions")
        order_by = None
        if self.accept("KEYWORD", "ORDER"):
            self.expect("KEYWORD", "BY")
            column = self.expect("IDENT").text
            descending = False
            if self.accept("KEYWORD", "DESC"):
                descending = True
            else:
                self.accept("KEYWORD", "ASC")
            order_by = OrderBy(column=column, descending=descending)
        limit = None
        if self.accept("KEYWORD", "LIMIT"):
            token = self.expect("NUMBER")
            limit = number_value(token.text, token.position)
            if not isinstance(limit, int):
                raise SqlSyntaxError("LIMIT must be an integer",
                                     token.position)
            if limit < 0:
                raise SqlSyntaxError("LIMIT must be non-negative",
                                     self.current.position)
        if order_by is not None and aggregates:
            if group_by is None or order_by.column != group_by:
                raise SqlUnsupportedError(
                    "with aggregates, ORDER BY is only supported on "
                    "the GROUP BY column")
        return SelectStmt(table=table, columns=tuple(columns),
                          where=where, limit=limit,
                          aggregates=tuple(aggregates),
                          order_by=order_by, group_by=group_by)

    def _select_item(self, columns: List[str],
                     aggregates: List["Aggregate"]) -> None:
        """One select-list item: a column or ``FUNC(col | *)``."""
        name_token = self.expect("IDENT")
        if not self.accept("SYMBOL", "("):
            columns.append(name_token.text)
            return
        func = name_token.text.upper()
        if func not in AGGREGATE_FUNCS:
            raise SqlSyntaxError(
                f"unknown aggregate function {name_token.text!r}",
                name_token.position)
        if self.accept("SYMBOL", "*"):
            column = None
            if func != "COUNT":
                raise SqlSyntaxError(f"{func}(*) is not valid",
                                     name_token.position)
        else:
            column = self.expect("IDENT").text
        self.expect("SYMBOL", ")")
        aggregates.append(Aggregate(func=func, column=column))

    def _insert(self) -> InsertStmt:
        self.expect("KEYWORD", "INSERT")
        self.expect("KEYWORD", "INTO")
        table = self.expect("IDENT").text
        self.expect("SYMBOL", "(")
        columns = [self.expect("IDENT").text]
        while self.accept("SYMBOL", ","):
            columns.append(self.expect("IDENT").text)
        self.expect("SYMBOL", ")")
        self.expect("KEYWORD", "VALUES")
        rows: List[Tuple[Value, ...]] = [self._value_row(len(columns))]
        while self.accept("SYMBOL", ","):
            rows.append(self._value_row(len(columns)))
        return InsertStmt(table=table, columns=tuple(columns),
                          rows=tuple(rows))

    def _value_row(self, arity: int) -> Tuple[Value, ...]:
        self.expect("SYMBOL", "(")
        values = [self._literal()]
        while self.accept("SYMBOL", ","):
            values.append(self._literal())
        close = self.expect("SYMBOL", ")")
        if len(values) != arity:
            raise SqlSyntaxError(
                f"VALUES row has {len(values)} values, expected {arity}",
                close.position)
        return tuple(values)

    def _update(self) -> UpdateStmt:
        self.expect("KEYWORD", "UPDATE")
        table = self.expect("IDENT").text
        self.expect("KEYWORD", "SET")
        assignments = [self._assignment()]
        while self.accept("SYMBOL", ","):
            assignments.append(self._assignment())
        return UpdateStmt(table=table, assignments=tuple(assignments),
                          where=self._optional_where())

    def _assignment(self) -> Tuple[str, Value]:
        column = self.expect("IDENT").text
        self.expect("SYMBOL", "=")
        return column, self._literal()

    def _delete(self) -> DeleteStmt:
        self.expect("KEYWORD", "DELETE")
        self.expect("KEYWORD", "FROM")
        table = self.expect("IDENT").text
        return DeleteStmt(table=table, where=self._optional_where())

    def _create(self) -> Statement:
        self.expect("KEYWORD", "CREATE")
        if self.accept("KEYWORD", "TABLE"):
            table = self.expect("IDENT").text
            self.expect("SYMBOL", "(")
            columns = [self._column_def()]
            while self.accept("SYMBOL", ","):
                columns.append(self._column_def())
            self.expect("SYMBOL", ")")
            return CreateTableStmt(table=table, columns=tuple(columns))
        if self.accept("KEYWORD", "INDEX"):
            name = self.expect("IDENT").text
            self.expect("KEYWORD", "ON")
            table = self.expect("IDENT").text
            self.expect("SYMBOL", "(")
            columns = [self.expect("IDENT").text]
            while self.accept("SYMBOL", ","):
                columns.append(self.expect("IDENT").text)
            self.expect("SYMBOL", ")")
            return CreateIndexStmt(name=name, table=table,
                                   columns=tuple(columns))
        raise SqlSyntaxError("expected TABLE or INDEX after CREATE",
                             self.current.position)

    def _column_def(self) -> Tuple[str, str]:
        name = self.expect("IDENT").text
        type_token = self.current
        if type_token.kind not in ("IDENT", "KEYWORD"):
            raise SqlSyntaxError(
                f"expected a type for column {name!r}",
                type_token.position)
        self.advance()
        return name, type_token.text

    def _drop(self) -> Statement:
        self.expect("KEYWORD", "DROP")
        if self.accept("KEYWORD", "INDEX"):
            return DropIndexStmt(name=self.expect("IDENT").text)
        if self.accept("KEYWORD", "TABLE"):
            return DropTableStmt(table=self.expect("IDENT").text)
        raise SqlSyntaxError("expected TABLE or INDEX after DROP",
                             self.current.position)

    def _optional_where(self) -> Optional[Conjunction]:
        if not self.accept("KEYWORD", "WHERE"):
            return None
        predicates = [self._predicate()]
        while self.accept("KEYWORD", "AND"):
            predicates.append(self._predicate())
        return Conjunction(tuple(predicates))

    def _predicate(self):
        column = self.expect("IDENT").text
        if self.accept("KEYWORD", "BETWEEN"):
            lo = self._literal()
            self.expect("KEYWORD", "AND")
            hi = self._literal()
            return Between(column=column, lo=lo, hi=hi)
        op_token = self.current
        if op_token.kind != "SYMBOL" or op_token.text not in (
                "=", "!=", "<", "<=", ">", ">="):
            raise SqlSyntaxError(
                f"expected a comparison operator after {column!r}",
                op_token.position)
        self.advance()
        return Comparison(column=column, op=op_token.text,
                          value=self._literal())

    def _literal(self) -> Value:
        token = self.current
        if token.kind == "NUMBER":
            self.advance()
            return number_value(token.text, token.position)
        if token.kind == "STRING":
            self.advance()
            return token.text
        raise SqlSyntaxError(f"expected a literal, found {token.text!r}",
                             token.position)
