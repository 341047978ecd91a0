"""Unit tests for heap tables."""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.sqlengine.buffer import BufferManager
from repro.sqlengine.schema import TableSchema
from repro.sqlengine.storage import HeapTable, PAGE_SIZE_BYTES
from repro.sqlengine.types import ColumnType


@pytest.fixture
def table():
    schema = TableSchema.build("t", [("a", ColumnType.INTEGER),
                                     ("b", ColumnType.INTEGER)])
    return HeapTable(schema, BufferManager())


def load(table, n=100, seed=0):
    rng = np.random.default_rng(seed)
    table.bulk_load({"a": rng.integers(0, 50, n),
                     "b": rng.integers(0, 50, n)})
    return table


class TestGeometry:
    def test_rows_per_page_from_row_width(self, table):
        expected = int(PAGE_SIZE_BYTES * 0.96 // table.schema.row_width)
        assert table.rows_per_page == expected

    def test_empty_table_has_no_pages(self, table):
        assert table.n_pages == 0

    def test_page_count_grows_with_rows(self, table):
        load(table, table.rows_per_page + 1)
        assert table.n_pages == 2

    def test_page_of_row(self, table):
        load(table, 10)
        assert table.page_of_row(0) == 0
        assert table.page_of_row(table.rows_per_page) == 1


class TestBulkLoad:
    def test_load_count(self, table):
        assert load(table, 100).nrows == 100

    def test_missing_column_raises(self, table):
        with pytest.raises(StorageError):
            table.bulk_load({"a": [1, 2]})

    def test_length_mismatch_raises(self, table):
        with pytest.raises(StorageError):
            table.bulk_load({"a": [1, 2], "b": [1]})

    def test_2d_input_raises(self, table):
        with pytest.raises(StorageError):
            table.bulk_load({"a": [[1], [2]], "b": [1, 2]})

    def test_empty_load_is_noop(self, table):
        assert table.bulk_load({"a": [], "b": []}) == 0

    def test_multiple_loads_append(self, table):
        load(table, 60)
        load(table, 40, seed=1)
        assert table.nrows == 100

    def test_load_charges_page_writes(self, table):
        before = table.buffer_manager.metrics.physical_writes
        load(table, 2 * table.rows_per_page)
        delta = table.buffer_manager.metrics.physical_writes - before
        assert delta == 2


class TestRowOps:
    def test_insert_returns_sequential_rids(self, table):
        r0 = table.insert_row({"a": 1, "b": 2})
        r1 = table.insert_row({"a": 3, "b": 4})
        assert (r0, r1) == (0, 1)

    def test_insert_missing_column_raises(self, table):
        with pytest.raises(StorageError):
            table.insert_row({"a": 1})

    def test_insert_type_checked(self, table):
        from repro.errors import TypeMismatchError
        with pytest.raises(TypeMismatchError):
            table.insert_row({"a": "x", "b": 2})

    def test_delete_tombstones(self, table):
        load(table, 10)
        assert table.delete_rows([0, 1]) == 2
        assert table.nrows == 8
        assert table.nslots == 10

    def test_double_delete_counts_once(self, table):
        load(table, 5)
        table.delete_rows([0])
        assert table.delete_rows([0]) == 0

    def test_delete_out_of_range_raises(self, table):
        load(table, 5)
        with pytest.raises(StorageError):
            table.delete_rows([99])

    def test_update_overwrites(self, table):
        load(table, 5)
        table.update_rows([2], {"a": 999})
        assert table.column_array("a")[2] == 999

    def test_update_type_checked(self, table):
        from repro.errors import TypeMismatchError
        load(table, 5)
        with pytest.raises(TypeMismatchError):
            table.update_rows([0], {"a": "bad"})

    def test_live_rids_excludes_deleted(self, table):
        load(table, 5)
        table.delete_rows([1, 3])
        assert list(table.live_rids()) == [0, 2, 4]


class TestFetch:
    def test_scan_pages_charges_all(self, table):
        load(table, 2 * table.rows_per_page)
        before = table.buffer_manager.snapshot()
        pages = table.scan_pages()
        assert pages == 2
        delta = table.buffer_manager.snapshot() - before
        assert delta.logical_reads == 2


class TestGrowth:
    def test_capacity_doubles_transparently(self, table):
        for i in range(3000):
            table.insert_row({"a": i, "b": i})
        assert table.nrows == 3000
        assert list(table.column_array("a")[:3]) == [0, 1, 2]
        assert table.column_array("a")[2999] == 2999
