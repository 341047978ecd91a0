"""Workload model: statements and statement sequences.

A :class:`Statement` wraps one SQL statement (text plus lazily parsed
AST) with an optional tag — the experiments tag each query with the mix
(A/B/C/D) it was drawn from, which makes workload tables and design
reports legible. A :class:`Workload` is an ordered sequence of
statements, the paper's ``[S1, ..., Sn]``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

from ..errors import WorkloadError
from ..sqlengine.sql import parse
from ..sqlengine.sql.ast import Statement as AstStatement


class Statement:
    """One workload statement.

    Args:
        sql: the statement text, a non-blank ``str``.
        tag: optional label (e.g. the query-mix name it was drawn
            from), a ``str`` or ``None``.

    Raises:
        WorkloadError: ``sql`` is not a string or is blank, or ``tag``
            is neither a string nor ``None``.
    """

    __slots__ = ("sql", "tag", "_ast")

    def __init__(self, sql: str, tag: Optional[str] = None):
        if not isinstance(sql, str):
            raise WorkloadError("'sql' is not a string")
        if tag is not None and not isinstance(tag, str):
            raise WorkloadError("'tag' is not a string")
        if not sql.strip():
            raise WorkloadError("empty SQL statement")
        self.sql = sql
        self.tag = tag
        self._ast: Optional[AstStatement] = None

    @property
    def ast(self) -> AstStatement:
        """The parsed statement (parsed once, cached)."""
        if self._ast is None:
            self._ast = parse(self.sql)
        return self._ast

    def __repr__(self) -> str:
        tag = f", tag={self.tag!r}" if self.tag else ""
        return f"Statement({self.sql!r}{tag})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, Statement) and other.sql == self.sql
                and other.tag == self.tag)

    def __hash__(self) -> int:
        return hash((self.sql, self.tag))


class Workload:
    """An ordered sequence of statements.

    Args:
        statements: the statements, in execution order.
        name: optional workload name (e.g. ``"W1"``).
    """

    def __init__(self, statements: Iterable[Statement],
                 name: Optional[str] = None):
        self.statements: List[Statement] = list(statements)
        self.name = name

    def __len__(self) -> int:
        return len(self.statements)

    def __iter__(self) -> Iterator[Statement]:
        return iter(self.statements)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return Workload(self.statements[item], name=self.name)
        return self.statements[item]

    def tag_counts(self) -> Dict[Optional[str], int]:
        """How many statements carry each tag."""
        counts: Dict[Optional[str], int] = {}
        for statement in self.statements:
            counts[statement.tag] = counts.get(statement.tag, 0) + 1
        return counts

    def __repr__(self) -> str:
        name = f" {self.name!r}" if self.name else ""
        return f"<Workload{name}: {len(self)} statements>"
