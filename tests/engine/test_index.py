"""Unit tests for index definitions, geometry, and materialized
indexes."""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.sqlengine.buffer import BufferManager
from repro.sqlengine.index import Index, IndexDef, IndexGeometry
from repro.sqlengine.schema import TableSchema
from repro.sqlengine.storage import HeapTable
from repro.sqlengine.types import ColumnType


@pytest.fixture
def table():
    schema = TableSchema.build("t", [("a", ColumnType.INTEGER),
                                     ("b", ColumnType.INTEGER)])
    table = HeapTable(schema, BufferManager())
    rng = np.random.default_rng(3)
    table.bulk_load({"a": rng.integers(0, 100, 5000),
                     "b": rng.integers(0, 100, 5000)})
    return table


class TestIndexDef:
    def test_label(self):
        assert IndexDef("t", ("a", "b")).label == "I(a,b)"

    def test_covers(self):
        d = IndexDef("t", ("a", "b"))
        assert d.covers(["a"])
        assert d.covers(["b", "a"])
        assert not d.covers(["a", "c"])

    def test_empty_columns_raise(self):
        with pytest.raises(SchemaError):
            IndexDef("t", ())

    def test_duplicate_columns_raise(self):
        with pytest.raises(SchemaError):
            IndexDef("t", ("a", "a"))

    def test_hashable_and_ordered(self):
        d1, d2 = IndexDef("t", ("a",)), IndexDef("t", ("b",))
        assert len({d1, d2, IndexDef("t", ("a",))}) == 2
        assert sorted([d2, d1])[0] == d1

    def test_default_name(self):
        assert IndexDef("t", ("a", "b")).default_name() == "ix_t_a_b"


class TestIndexGeometry:
    def test_leaf_pages_scale_with_rows(self, table):
        g1 = IndexGeometry.compute(table.schema, ["a"], 1000)
        g2 = IndexGeometry.compute(table.schema, ["a"], 100_000)
        assert g2.leaf_pages > g1.leaf_pages

    def test_wider_keys_mean_fewer_entries_per_page(self, table):
        narrow = IndexGeometry.compute(table.schema, ["a"], 1000)
        wide = IndexGeometry.compute(table.schema, ["a", "b"], 1000)
        assert wide.entries_per_page < narrow.entries_per_page

    def test_height_grows_logarithmically(self, table):
        small = IndexGeometry.compute(table.schema, ["a"], 100)
        large = IndexGeometry.compute(table.schema, ["a"], 10_000_000)
        assert small.height == 1 or small.height == 2
        assert large.height > small.height
        assert large.height <= 4

    def test_empty_index_geometry(self, table):
        g = IndexGeometry.compute(table.schema, ["a"], 0)
        assert g.leaf_pages == 1
        assert g.height == 1

    def test_leaf_pages_for(self, table):
        g = IndexGeometry.compute(table.schema, ["a"], 10_000)
        assert g.leaf_pages_for(0) == 0
        assert g.leaf_pages_for(1) == 1
        assert g.leaf_pages_for(g.entries_per_page + 1) == 2

    def test_size_bytes(self, table):
        g = IndexGeometry.compute(table.schema, ["a"], 10_000)
        assert g.size_bytes == g.total_pages * 8192


class TestMaterializedIndex:
    def test_build_indexes_all_rows(self, table):
        index = Index(IndexDef("t", ("a",)), table, table.buffer_manager)
        cols, rids = index.leaf_arrays()
        assert len(rids) == len(cols["a"]) == table.nrows
        assert index.geometry().nrows == table.nrows

    def test_wrong_table_raises(self, table):
        with pytest.raises(SchemaError):
            Index(IndexDef("other", ("a",)), table,
                  table.buffer_manager)

    def test_unknown_column_raises(self, table):
        with pytest.raises(SchemaError):
            Index(IndexDef("t", ("zz",)), table, table.buffer_manager)

    def test_seek_equal_matches_scan(self, table):
        index = Index(IndexDef("t", ("a",)), table, table.buffer_manager)
        expected = set(np.nonzero(table.column_array("a") == 42)[0])
        cols, rids = index.leaf_arrays()
        lo, hi = np.searchsorted(cols["a"], 42, side="left"), \
            np.searchsorted(cols["a"], 42, side="right")
        assert set(rids[lo:hi]) == expected

    def test_build_charges_scan_and_writes(self, table):
        before = table.buffer_manager.snapshot()
        index = Index(IndexDef("t", ("a",)), table, table.buffer_manager)
        metrics = table.buffer_manager.snapshot() - before
        assert metrics.logical_reads >= table.n_pages
        assert metrics.physical_writes >= index.geometry().total_pages

    def test_leaf_arrays_sorted(self, table):
        index = Index(IndexDef("t", ("a", "b")), table,
                      table.buffer_manager)
        cols, rids = index.leaf_arrays()
        a = cols["a"]
        assert (np.diff(a) >= 0).all()
        assert len(rids) == table.nrows

    def test_maintenance_on_insert(self, table):
        index = Index(IndexDef("t", ("a",)), table, table.buffer_manager)
        rid = table.insert_row({"a": 424242 % 100, "b": 0})
        index.on_insert(rid)
        cols, rids = index.leaf_arrays()   # re-sorted from the heap
        assert rid in rids[cols["a"] == 42]
        assert len(rids) == table.nrows

    def test_maintenance_on_delete(self, table):
        index = Index(IndexDef("t", ("a",)), table, table.buffer_manager)
        index.on_delete(0)
        table.delete_rows([0])
        cols, rids = index.leaf_arrays()
        assert 0 not in rids
        assert len(rids) == table.nrows

    def test_maintenance_on_update(self, table):
        index = Index(IndexDef("t", ("a",)), table, table.buffer_manager)
        old = int(table.column_array("a")[5])
        table.update_rows([5], {"a": 77})
        index.on_update(5)
        cols, rids = index.leaf_arrays()
        assert 5 in rids[cols["a"] == 77]
        assert 5 not in rids[cols["a"] == old]

    def test_maintenance_writes_the_root_page(self, table):
        index = Index(IndexDef("t", ("a",)), table, table.buffer_manager)
        before = table.buffer_manager.snapshot()
        for hook in (index.on_insert, index.on_delete, index.on_update):
            hook(0)
        delta = table.buffer_manager.snapshot() - before
        assert delta.physical_writes == 3
