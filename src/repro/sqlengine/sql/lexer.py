"""Tokenizer for the SQL subset."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from ...errors import SqlSyntaxError
from ..types import Value

KEYWORDS = frozenset({
    "SELECT", "FROM", "WHERE", "AND", "BETWEEN", "LIMIT",
    "INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE",
    "CREATE", "DROP", "TABLE", "INDEX", "ON",
    "ORDER", "BY", "ASC", "DESC", "GROUP",
})

SYMBOLS = ("<=", ">=", "!=", "<>", "=", "<", ">", "(", ")", ",", "*", ";")


#: Everything :func:`_tokens` reads as a comment, STRING or NUMBER, as
#: one group so ``split`` interleaves it with the text in between. A
#: sign belongs to the digits after it wherever it stands (the lexer
#: reads ``AND-5`` as ``AND``, ``-5``); a bare digit starts a number
#: only outside an identifier. The lookahead names the characters a
#: match can start with, which lets the scan skip the rest (about
#: twice as fast).
_LITERAL = re.compile(
    r"(?=[-+'\d])(--[^\n]*|'(?:[^']|'')*'"
    r"|(?:[+-]|(?<![\w.]))\d[\d.]*(?:[eE][+-]?\d*)?)")


def split_literals(sql: str) -> Tuple[Tuple[str, ...], List[str]]:
    """``sql`` as ``(shape, literal source texts)``: the stretches of
    text between its comments and literals, and the comments and
    literals themselves, in order. Statements of equal shape differ
    only in those texts."""
    parts = _LITERAL.split(sql)
    return tuple(parts[::2]), parts[1::2]


def literal_spans(sql: str) -> List[Tuple[int, str]]:
    """``(position, source text)`` of what :func:`split_literals`
    takes out, for comparing with the lexer's tokens."""
    return [(m.start(), m.group()) for m in _LITERAL.finditer(sql)]


def number_value(text: str, position: int = -1) -> Value:
    """The value of NUMBER text: ``float`` with a ``.`` or an exponent,
    else ``int``. The one conversion the parser and the shape binder
    share, so ``1.5.3`` and ``1e`` fail the same way in both."""
    try:
        if "." in text or "e" in text or "E" in text:
            return float(text)
        return int(text)
    except ValueError:
        raise SqlSyntaxError(f"malformed number {text!r}",
                             position) from None


def literal_value(source: str) -> Value:
    """The value of one literal's source text as :func:`split_literals`
    returns it (a quoted string or a number)."""
    if source[0] == "'":
        return source[1:-1].replace("''", "'")
    return number_value(source)


@dataclass(frozen=True)
class Token:
    """A lexical token.

    Attributes:
        kind: one of KEYWORD, IDENT, NUMBER, STRING, SYMBOL, EOF.
        text: the token's canonical text (keywords upper-cased,
            ``<>`` normalized to ``!=``).
        position: character offset in the source.
    """

    kind: str
    text: str
    position: int


def tokenize(sql: str) -> List[Token]:
    """Tokenize ``sql``; raises :class:`SqlSyntaxError` on bad input."""
    return list(_tokens(sql))


def _tokens(sql: str) -> Iterator[Token]:
    i, n = 0, len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and sql.startswith("--", i):
            newline = sql.find("\n", i)
            i = n if newline < 0 else newline + 1
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (sql[i].isalnum() or sql[i] == "_"):
                i += 1
            word = sql[start:i]
            upper = word.upper()
            if upper in KEYWORDS:
                yield Token("KEYWORD", upper, start)
            else:
                yield Token("IDENT", word, start)
            continue
        if ch.isdigit() or (ch in "+-" and i + 1 < n and
                            sql[i + 1].isdigit()):
            start = i
            if ch in "+-":
                i += 1
            while i < n and (sql[i].isdigit() or sql[i] == "."):
                i += 1
            if i < n and sql[i] in "eE":
                i += 1
                if i < n and sql[i] in "+-":
                    i += 1
                while i < n and sql[i].isdigit():
                    i += 1
            yield Token("NUMBER", sql[start:i], start)
            continue
        if ch == "'":
            start = i
            i += 1
            chunks: List[str] = []
            while True:
                if i >= n:
                    raise SqlSyntaxError("unterminated string literal",
                                         start)
                if sql[i] == "'":
                    if i + 1 < n and sql[i + 1] == "'":
                        chunks.append("'")
                        i += 2
                        continue
                    i += 1
                    break
                chunks.append(sql[i])
                i += 1
            yield Token("STRING", "".join(chunks), start)
            continue
        matched = False
        for symbol in SYMBOLS:
            if sql.startswith(symbol, i):
                canonical = "!=" if symbol == "<>" else symbol
                yield Token("SYMBOL", canonical, i)
                i += len(symbol)
                matched = True
                break
        if not matched:
            raise SqlSyntaxError(f"unexpected character {ch!r}", i)
    yield Token("EOF", "", n)
