"""Unit tests for column types and value handling."""

import numpy as np
import pytest

from repro.errors import TypeMismatchError
from repro.sqlengine.types import (ColumnType, TEXT_MAX_CHARS,
                                   parse_column_type)


class TestColumnType:
    def test_integer_width(self):
        assert ColumnType.INTEGER.byte_width == 4

    def test_bigint_width(self):
        assert ColumnType.BIGINT.byte_width == 8

    def test_float_width(self):
        assert ColumnType.FLOAT.byte_width == 8

    def test_text_width_is_fixed(self):
        assert ColumnType.TEXT.byte_width == TEXT_MAX_CHARS

    def test_numeric_flags(self):
        assert ColumnType.INTEGER.is_numeric
        assert ColumnType.FLOAT.is_numeric
        assert not ColumnType.TEXT.is_numeric

    def test_numpy_dtypes(self):
        assert ColumnType.INTEGER.numpy_dtype == np.dtype(np.int64)
        assert ColumnType.FLOAT.numpy_dtype == np.dtype(np.float64)
        assert ColumnType.TEXT.numpy_dtype.kind == "U"


class TestValidation:
    def test_integer_accepts_int(self):
        assert ColumnType.INTEGER.validate(42) == 42

    def test_integer_accepts_numpy_int(self):
        assert ColumnType.INTEGER.validate(np.int64(5)) == 5

    def test_integer_rejects_float(self):
        with pytest.raises(TypeMismatchError):
            ColumnType.INTEGER.validate(4.2)

    def test_integer_rejects_bool(self):
        with pytest.raises(TypeMismatchError):
            ColumnType.INTEGER.validate(True)

    def test_float_accepts_int_and_float(self):
        assert ColumnType.FLOAT.validate(2) == 2.0
        assert ColumnType.FLOAT.validate(2.5) == 2.5

    def test_float_rejects_string(self):
        with pytest.raises(TypeMismatchError):
            ColumnType.FLOAT.validate("x")

    def test_text_accepts_string(self):
        assert ColumnType.TEXT.validate("hello") == "hello"

    def test_text_rejects_overlong(self):
        with pytest.raises(TypeMismatchError):
            ColumnType.TEXT.validate("x" * (TEXT_MAX_CHARS + 1))

    def test_text_rejects_int(self):
        with pytest.raises(TypeMismatchError):
            ColumnType.TEXT.validate(3)


class TestParseColumnType:
    @pytest.mark.parametrize("spelling,expected", [
        ("INT", ColumnType.INTEGER),
        ("integer", ColumnType.INTEGER),
        ("BIGINT", ColumnType.BIGINT),
        ("double", ColumnType.FLOAT),
        ("REAL", ColumnType.FLOAT),
        ("varchar", ColumnType.TEXT),
        ("TEXT", ColumnType.TEXT),
    ])
    def test_aliases(self, spelling, expected):
        assert parse_column_type(spelling) == expected

    def test_unknown_type_raises(self):
        with pytest.raises(TypeMismatchError):
            parse_column_type("BLOB")

