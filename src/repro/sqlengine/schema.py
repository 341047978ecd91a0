"""Table schemas and the system catalog's logical definitions.

A :class:`TableSchema` is an ordered list of typed columns plus derived
page-geometry facts (row width, rows per page). The widths are the
inputs the cost model uses everywhere, so they live here, next to the
schema, rather than being re-derived ad hoc.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from ..errors import SchemaError
from .types import ColumnType

#: Per-row storage overhead in bytes (row header + null bitmap), modeled
#: after typical slotted-page layouts.
ROW_OVERHEAD_BYTES = 8

#: Width of a row identifier (page number + slot) as stored in indexes.
RID_BYTES = 8


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    ctype: ColumnType

    def __post_init__(self) -> None:
        if not self.name or not self.name[0].isalpha():
            raise SchemaError(f"invalid column name {self.name!r}")

    @property
    def byte_width(self) -> int:
        return self.ctype.byte_width

    def __str__(self) -> str:
        return f"{self.name} {self.ctype.value}"


@dataclass(frozen=True)
class TableSchema:
    """An ordered, immutable description of a table's columns."""

    name: str
    columns: Tuple[Column, ...]
    _by_name: Dict[str, Column] = field(
        default=None, repr=False, compare=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not self.name or not self.name[0].isalpha():
            raise SchemaError(f"invalid table name {self.name!r}")
        if not self.columns:
            raise SchemaError(f"table {self.name!r} needs at least 1 column")
        seen = set()
        for column in self.columns:
            if column.name in seen:
                raise SchemaError(
                    f"duplicate column {column.name!r} in {self.name!r}")
            seen.add(column.name)
        object.__setattr__(
            self, "_by_name", {c.name: c for c in self.columns})

    @classmethod
    def build(cls, name: str,
              columns: Iterable[Tuple[str, ColumnType]]) -> "TableSchema":
        """Convenience constructor from ``(name, type)`` pairs."""
        return cls(name, tuple(Column(n, t) for n, t in columns))

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no column {name!r}") from None

    def has_column(self, name: str) -> bool:
        return name in self._by_name

    @property
    def row_width(self) -> int:
        """On-page width of one row, including per-row overhead."""
        return ROW_OVERHEAD_BYTES + sum(c.byte_width for c in self.columns)

    def width_of(self, column_names: Sequence[str]) -> int:
        """Combined byte width of the named columns (no row overhead)."""
        return sum(self.column(n).byte_width for n in column_names)

    def ddl(self) -> str:
        """Render the schema as a ``CREATE TABLE`` statement."""
        cols = ", ".join(str(c) for c in self.columns)
        return f"CREATE TABLE {self.name} ({cols})"

    def __str__(self) -> str:
        return self.ddl()
