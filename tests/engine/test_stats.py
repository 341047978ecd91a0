"""Unit tests for statistics and selectivity estimation."""

import math
import warnings

import numpy as np
import pytest

from repro.errors import EngineError
from repro.sqlengine import Database
from repro.sqlengine.buffer import BufferManager
from repro.sqlengine.schema import TableSchema
from repro.sqlengine.stats import (ColumnStats, EquiDepthHistogram,
                                   TableStats, combined_selectivity)
from repro.sqlengine.storage import HeapTable
from repro.sqlengine.types import ColumnType


class TestHistogram:
    def test_uniform_median(self):
        values = np.arange(10_000, dtype=np.float64)
        hist = EquiDepthHistogram.from_array(values, n_buckets=32)
        assert hist.fraction_below(5000, inclusive=False) == \
            pytest.approx(0.5, abs=0.02)

    def test_bounds(self):
        hist = EquiDepthHistogram.from_array(np.arange(100.0))
        assert hist.fraction_below(-5, inclusive=True) == 0.0
        assert hist.fraction_below(1000, inclusive=True) == 1.0

    def test_max_value_inclusive(self):
        hist = EquiDepthHistogram.from_array(np.arange(100.0))
        assert hist.fraction_below(99.0, inclusive=True) == 1.0

    def test_range_selectivity_uniform(self):
        hist = EquiDepthHistogram.from_array(
            np.arange(10_000, dtype=np.float64))
        sel = hist.selectivity_range(2500, 7500)
        assert sel == pytest.approx(0.5, abs=0.03)

    def test_empty_range(self):
        hist = EquiDepthHistogram.from_array(np.arange(100.0))
        assert hist.selectivity_range(50, 40) == 0.0

    def test_open_ended_ranges(self):
        hist = EquiDepthHistogram.from_array(np.arange(100.0))
        assert hist.selectivity_range(None, None) == 1.0
        assert hist.selectivity_range(50, None) == \
            pytest.approx(0.5, abs=0.05)

    def test_skewed_data(self):
        # 90% of mass at small values: equi-depth adapts.
        values = np.concatenate([np.zeros(9000), np.arange(1000.0)])
        hist = EquiDepthHistogram.from_array(values, n_buckets=32)
        assert hist.fraction_below(1.0, inclusive=False) >= 0.85

    def test_empty_histogram(self):
        hist = EquiDepthHistogram.from_array(np.array([]))
        assert hist.selectivity_range(0, 10) == 0.0

    def test_constant_column(self):
        hist = EquiDepthHistogram.from_array(np.full(100, 7.0))
        assert hist.selectivity_range(None, 7, hi_inclusive=True) == 1.0


class TestColumnStats:
    def test_distinct_count_exact(self):
        stats = ColumnStats.from_array(
            "a", np.array([1, 1, 2, 3, 3, 3]))
        assert stats.n_distinct == 3

    def test_eq_selectivity_uniform(self):
        stats = ColumnStats.from_array("a", np.arange(1000))
        assert stats.selectivity_eq(500) == pytest.approx(0.001)

    def test_eq_selectivity_out_of_domain(self):
        stats = ColumnStats.from_array("a", np.arange(1000))
        assert stats.selectivity_eq(-5) == 0.0
        assert stats.selectivity_eq(99999) == 0.0

    def test_empty_column(self):
        stats = ColumnStats.from_array("a", np.array([]))
        assert stats.selectivity_eq(1) == 0.0
        assert stats.selectivity_range(0, 10) == 0.0

    def test_string_column_has_distinct_only(self):
        stats = ColumnStats.from_array(
            "s", np.array(["x", "y", "x"], dtype="U8"))
        assert stats.n_distinct == 2
        assert stats.histogram is None
        assert 0 < stats.selectivity_range("a", "z") <= 1.0

    def test_range_selectivity_via_histogram(self):
        stats = ColumnStats.from_array("a", np.arange(10_000))
        assert stats.selectivity_range(0, 999) == \
            pytest.approx(0.1, abs=0.02)


class TestNonFiniteValues:
    """NaN rows carry no range mass; ``±inf`` is an outer boundary."""

    @pytest.fixture
    def db(self):
        db = Database()
        db.create_table("g", [("x", "FLOAT"), ("y", "INTEGER")])
        db.bulk_load("g", {"x": [1.0, 2.0, math.nan, 4.0] * 10,
                           "y": list(range(40))})
        return db

    def test_nan_rows_are_left_out_of_the_domain(self, db):
        stats = db.stats("g").column("x")
        assert (stats.min_value, stats.max_value) == (1.0, 4.0)
        assert stats.n_values == 40
        assert stats.histogram.total == 30
        assert not any(math.isnan(b) for b in stats.histogram.boundaries)

    def test_range_estimate_tracks_the_executor(self, db):
        stats = db.stats("g").column("x")
        rows = db.query("SELECT x FROM g WHERE x < 3")
        assert len(rows) == 20
        assert stats.selectivity_range(None, 3, True, False) == \
            pytest.approx(len(rows) / 40, abs=0.05)
        assert stats.selectivity_range(None, None) == pytest.approx(0.75)

    def test_infinite_insert_keeps_an_outer_boundary(self):
        db = Database()
        db.create_table("f", [("x", "FLOAT"), ("y", "INTEGER")])
        db.execute("INSERT INTO f (x, y) VALUES (1.5, 1)")
        db.execute("INSERT INTO f (x, y) VALUES (1e999, 1)")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = db.stats("f").column("x")
        bounds = stats.histogram.boundaries
        assert bounds[0] == 1.5 and bounds[-1] == math.inf
        assert list(bounds) == sorted(bounds)
        assert stats.max_value == math.inf
        assert stats.selectivity_range(None, 3, True, False) == 0.5

    def test_all_nan_column(self):
        stats = ColumnStats.from_array("x", np.full(5, np.nan))
        assert stats.min_value is None and stats.max_value is None
        assert stats.selectivity_range(0.0, 1.0) == 0.0
        assert stats.selectivity_range(None, None) == 0.0


class TestTableStats:
    @pytest.fixture
    def table(self):
        schema = TableSchema.build("t", [("a", ColumnType.INTEGER)])
        table = HeapTable(schema, BufferManager())
        table.bulk_load({"a": np.arange(5000)})
        return table

    def test_from_table(self, table):
        stats = TableStats.from_table(table)
        assert stats.nrows == 5000
        assert stats.n_pages == table.n_pages
        assert stats.column("a").n_distinct == 5000

    def test_deleted_rows_excluded(self, table):
        table.delete_rows(list(range(1000)))
        stats = TableStats.from_table(table)
        assert stats.nrows == 4000
        assert stats.column("a").min_value == 1000

    def test_unknown_column_raises(self, table):
        stats = TableStats.from_table(table)
        with pytest.raises(EngineError):
            stats.column("zzz")


class TestHelpers:
    def test_combined_selectivity_product(self):
        assert combined_selectivity([0.5, 0.1]) == pytest.approx(0.05)

    def test_combined_selectivity_clips(self):
        assert combined_selectivity([2.0, -1.0]) == 0.0

    def test_combined_selectivity_empty(self):
        assert combined_selectivity([]) == 1.0
