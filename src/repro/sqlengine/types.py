"""Column types and value handling for the embedded engine.

The engine supports a deliberately small set of column types — enough to
model the paper's experimental schema (four integer columns) plus the
types needed by realistic example workloads (floats and short strings).

Each type knows its on-page byte width, its NumPy storage dtype, and how
to validate / coerce Python values. Widths feed the cost model's page
geometry, which is what ultimately drives the physical-design decisions.
"""

from __future__ import annotations

import enum
from typing import Any, Union

import numpy as np

from ..errors import TypeMismatchError

#: Python-side value type stored in a column.
Value = Union[int, float, str]


class ColumnType(enum.Enum):
    """Supported column types.

    The enum value is the SQL spelling used by the parser and by
    ``CREATE TABLE`` round-trips.
    """

    INTEGER = "INTEGER"
    BIGINT = "BIGINT"
    FLOAT = "FLOAT"
    TEXT = "TEXT"

    @property
    def byte_width(self) -> int:
        """On-page width in bytes of one value of this type."""
        return _BYTE_WIDTHS[self]

    @property
    def numpy_dtype(self) -> np.dtype:
        """NumPy dtype used by the column store for this type."""
        return _NUMPY_DTYPES[self]

    @property
    def is_numeric(self) -> bool:
        return self in (ColumnType.INTEGER, ColumnType.BIGINT,
                        ColumnType.FLOAT)

    def validate(self, value: Any) -> Value:
        """Coerce ``value`` to this type, raising on a mismatch.

        Booleans are rejected for numeric columns (they are ``int``
        subclasses but almost always indicate a caller bug).
        """
        if isinstance(value, bool):
            raise TypeMismatchError(
                f"boolean value {value!r} is not valid for {self.value}")
        if self is ColumnType.INTEGER or self is ColumnType.BIGINT:
            if isinstance(value, (int, np.integer)):
                return int(value)
            raise TypeMismatchError(
                f"expected an integer for {self.value}, got {value!r}")
        if self is ColumnType.FLOAT:
            if isinstance(value, (int, float, np.integer, np.floating)):
                return float(value)
            raise TypeMismatchError(
                f"expected a number for FLOAT, got {value!r}")
        if self is ColumnType.TEXT:
            if isinstance(value, str):
                if len(value) > TEXT_MAX_CHARS:
                    raise TypeMismatchError(
                        f"TEXT value longer than {TEXT_MAX_CHARS} chars")
                return value
            raise TypeMismatchError(
                f"expected a string for TEXT, got {value!r}")
        raise TypeMismatchError(f"unhandled column type {self!r}")


#: Maximum length of a TEXT value; TEXT columns are fixed-width CHAR(32)
#: on page, which keeps page geometry simple and deterministic.
TEXT_MAX_CHARS = 32

_BYTE_WIDTHS = {
    ColumnType.INTEGER: 4,
    ColumnType.BIGINT: 8,
    ColumnType.FLOAT: 8,
    ColumnType.TEXT: TEXT_MAX_CHARS,
}

_NUMPY_DTYPES = {
    ColumnType.INTEGER: np.dtype(np.int64),
    ColumnType.BIGINT: np.dtype(np.int64),
    ColumnType.FLOAT: np.dtype(np.float64),
    ColumnType.TEXT: np.dtype(f"U{TEXT_MAX_CHARS}"),
}


def parse_column_type(spelling: str) -> ColumnType:
    """Map a SQL type spelling (case-insensitive) to a :class:`ColumnType`.

    Accepts common aliases (``INT``, ``VARCHAR``, ``DOUBLE``, ...).
    """
    normalized = spelling.strip().upper()
    aliases = {
        "INT": ColumnType.INTEGER,
        "INTEGER": ColumnType.INTEGER,
        "BIGINT": ColumnType.BIGINT,
        "FLOAT": ColumnType.FLOAT,
        "DOUBLE": ColumnType.FLOAT,
        "REAL": ColumnType.FLOAT,
        "TEXT": ColumnType.TEXT,
        "VARCHAR": ColumnType.TEXT,
        "CHAR": ColumnType.TEXT,
        "STRING": ColumnType.TEXT,
    }
    if normalized not in aliases:
        raise TypeMismatchError(f"unknown column type {spelling!r}")
    return aliases[normalized]

