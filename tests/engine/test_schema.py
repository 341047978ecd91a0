"""Unit tests for table schemas."""

import pytest

from repro.errors import SchemaError
from repro.sqlengine.schema import (Column, ROW_OVERHEAD_BYTES,
                                    TableSchema)
from repro.sqlengine.types import ColumnType


@pytest.fixture
def schema():
    return TableSchema.build("t", [("a", ColumnType.INTEGER),
                                   ("b", ColumnType.BIGINT),
                                   ("name", ColumnType.TEXT)])


class TestColumn:
    def test_width_follows_type(self):
        assert Column("x", ColumnType.INTEGER).byte_width == 4

    def test_invalid_name_raises(self):
        with pytest.raises(SchemaError):
            Column("1bad", ColumnType.INTEGER)

    def test_empty_name_raises(self):
        with pytest.raises(SchemaError):
            Column("", ColumnType.INTEGER)

    def test_str(self):
        assert str(Column("x", ColumnType.INTEGER)) == "x INTEGER"


class TestTableSchema:
    def test_column_names_ordered(self, schema):
        assert schema.column_names == ["a", "b", "name"]

    def test_column_lookup(self, schema):
        assert schema.column("b").ctype == ColumnType.BIGINT

    def test_unknown_column_raises(self, schema):
        with pytest.raises(SchemaError):
            schema.column("zz")

    def test_has_column(self, schema):
        assert schema.has_column("a")
        assert not schema.has_column("z")

    def test_row_width_includes_overhead(self, schema):
        expected = ROW_OVERHEAD_BYTES + 4 + 8 + 32
        assert schema.row_width == expected

    def test_width_of_subset(self, schema):
        assert schema.width_of(["a", "b"]) == 12

    def test_duplicate_column_raises(self):
        with pytest.raises(SchemaError):
            TableSchema.build("t", [("a", ColumnType.INTEGER),
                                    ("a", ColumnType.INTEGER)])

    def test_empty_schema_raises(self):
        with pytest.raises(SchemaError):
            TableSchema("t", ())

    def test_bad_table_name_raises(self):
        with pytest.raises(SchemaError):
            TableSchema.build("9t", [("a", ColumnType.INTEGER)])

    def test_ddl_round_trip_text(self, schema):
        ddl = schema.ddl()
        assert ddl.startswith("CREATE TABLE t (")
        assert "a INTEGER" in ddl and "name TEXT" in ddl

    def test_schema_equality(self):
        s1 = TableSchema.build("t", [("a", ColumnType.INTEGER)])
        s2 = TableSchema.build("t", [("a", ColumnType.INTEGER)])
        assert s1.columns == s2.columns
