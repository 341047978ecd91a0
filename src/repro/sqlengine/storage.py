"""Heap tables: page-organized row storage backed by column arrays.

Rows live in a heap file of fixed-size pages. For speed the engine keeps
the data column-wise in NumPy arrays, but the *accounting* is strictly
row/page oriented: each row has a row id (its slot position), each page
holds ``rows_per_page`` consecutive rows, and every access path charges
the pages it touches through the buffer manager.

Deletions tombstone rows (a validity bitmap); updates rewrite values in
place. This mirrors slotted-page heaps closely enough for the cost
model while keeping scans vectorized.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

import numpy as np

from ..errors import StorageError
from .buffer import BufferManager
from .schema import TableSchema
from .types import Value

#: Page size in bytes; matches common DBMS defaults (8 KiB).
PAGE_SIZE_BYTES = 8192

#: Fraction of a heap page usable for rows (rest is page header/slots).
HEAP_FILL_FACTOR = 0.96

_INITIAL_CAPACITY = 1024


class HeapTable:
    """A heap-organized table with page-level I/O accounting.

    Args:
        schema: the table's schema.
        buffer_manager: pool through which all page touches are metered.
    """

    def __init__(self, schema: TableSchema,
                 buffer_manager: BufferManager):
        self.schema = schema
        self.buffer_manager = buffer_manager
        self.object_id = buffer_manager.allocate_object_id()
        usable = PAGE_SIZE_BYTES * HEAP_FILL_FACTOR
        self.rows_per_page = max(1, int(usable // schema.row_width))
        self._columns: Dict[str, np.ndarray] = {
            c.name: np.empty(_INITIAL_CAPACITY, dtype=c.ctype.numpy_dtype)
            for c in schema.columns
        }
        self._valid = np.zeros(_INITIAL_CAPACITY, dtype=bool)
        self._size = 0          # number of allocated slots (incl. deleted)
        self._live = 0          # number of live rows

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------

    @property
    def nrows(self) -> int:
        """Number of live rows."""
        return self._live

    @property
    def nslots(self) -> int:
        """Number of allocated slots, including tombstoned rows."""
        return self._size

    @property
    def n_pages(self) -> int:
        """Heap pages allocated (tombstones still occupy their page)."""
        return max(1, math.ceil(self._size / self.rows_per_page)) \
            if self._size else 0

    def page_of_row(self, rid: int) -> int:
        return rid // self.rows_per_page

    # ------------------------------------------------------------------
    # loading and mutation
    # ------------------------------------------------------------------

    def bulk_load(self, columns: Dict[str, Sequence]) -> int:
        """Append many rows at once from column-wise data.

        Args:
            columns: mapping of column name to a sequence/array of values;
                all columns of the schema must be present and equal-length.

        Returns:
            The number of rows loaded.
        """
        missing = [c.name for c in self.schema.columns
                   if c.name not in columns]
        if missing:
            raise StorageError(f"bulk_load missing columns {missing}")
        arrays = {}
        length: Optional[int] = None
        for column in self.schema.columns:
            data = np.asarray(columns[column.name],
                              dtype=column.ctype.numpy_dtype)
            if data.ndim != 1:
                raise StorageError(
                    f"bulk_load column {column.name!r} must be 1-D")
            if length is None:
                length = len(data)
            elif len(data) != length:
                raise StorageError("bulk_load columns differ in length")
            arrays[column.name] = data
        if not length:
            return 0
        injector = self.buffer_manager.fault_injector
        if injector is not None:
            injector.on_build_step("heap_load", self.schema.name,
                                   self.buffer_manager.metrics)
        self._ensure_capacity(self._size + length)
        start, end = self._size, self._size + length
        for name, data in arrays.items():
            self._columns[name][start:end] = data
        self._valid[start:end] = True
        self._size = end
        self._live += length
        try:
            self._charge_write_pages(start, end)
        except StorageError:
            # Crash-safe load: a faulted page write un-appends the
            # whole batch, so no half-loaded rows become visible.
            self.truncate(start)
            raise
        return length

    def insert_row(self, values: Dict[str, Value]) -> int:
        """Insert one row; returns its row id. The page write comes
        first, so a faulted write leaves no row behind."""
        for column in self.schema.columns:
            if column.name not in values:
                raise StorageError(
                    f"insert missing column {column.name!r}")
            column.ctype.validate(values[column.name])
        rid = self._size
        self.buffer_manager.write_page(
            (self.object_id, self.page_of_row(rid)))
        self._ensure_capacity(self._size + 1)
        for column in self.schema.columns:
            self._columns[column.name][rid] = values[column.name]
        self._valid[rid] = True
        self._size += 1
        self._live += 1
        return rid

    def delete_rows(self, rids: Sequence[int]) -> int:
        """Tombstone the given rows; returns how many were live. The
        page writes come first, so a faulted write deletes no row."""
        rids = np.asarray(rids, dtype=np.int64)
        self._check_rids(rids)
        for page in np.unique(rids // self.rows_per_page):
            self.buffer_manager.write_page((self.object_id, int(page)))
        was_live = self._valid[rids]
        self._valid[rids] = False
        deleted = int(was_live.sum())
        self._live -= deleted
        return deleted

    def update_rows(self, rids: Sequence[int],
                    assignments: Dict[str, Value]) -> int:
        """Overwrite columns of the given rows in place. The page
        writes come first, so a faulted write changes no row."""
        rids = np.asarray(rids, dtype=np.int64)
        self._check_rids(rids)
        for name, value in assignments.items():
            self.schema.column(name).ctype.validate(value)
        for page in np.unique(rids // self.rows_per_page):
            self.buffer_manager.write_page((self.object_id, int(page)))
        for name, value in assignments.items():
            self._columns[name][rids] = value
        return len(rids)

    def truncate(self, nslots: int) -> None:
        """Drop every slot from ``nslots`` on, with no page write: the
        undo of rows appended by a statement that then failed."""
        self._live -= int(self._valid[nslots:self._size].sum())
        self._valid[nslots:self._size] = False
        self._size = nslots

    def restore_rows(self, rids: np.ndarray,
                     saved: Dict[str, np.ndarray]) -> None:
        """Write back column values saved before :meth:`update_rows`,
        with no page write: the undo of a statement that then failed."""
        for name, values in saved.items():
            self._columns[name][rids] = values

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def column_array(self, name: str) -> np.ndarray:
        """Live view of a column (all allocated slots; check validity).

        This is the raw array used by vectorized scans; callers must
        meter their own page touches (the executor does).
        """
        self.schema.column(name)
        return self._columns[name][:self._size]

    def valid_mask(self) -> np.ndarray:
        return self._valid[:self._size]

    def scan_pages(self) -> int:
        """Charge a full sequential scan of the heap; returns page count."""
        n = self.n_pages
        self.buffer_manager.read_range(self.object_id, n)
        return n

    def live_rids(self) -> np.ndarray:
        return np.nonzero(self._valid[:self._size])[0]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _ensure_capacity(self, needed: int) -> None:
        capacity = len(self._valid)
        if needed <= capacity:
            return
        new_capacity = max(needed, capacity * 2)
        for name, array in self._columns.items():
            grown = np.empty(new_capacity, dtype=array.dtype)
            grown[:self._size] = array[:self._size]
            self._columns[name] = grown
        grown_valid = np.zeros(new_capacity, dtype=bool)
        grown_valid[:self._size] = self._valid[:self._size]
        self._valid = grown_valid

    def _charge_write_pages(self, start_row: int, end_row: int) -> None:
        first = start_row // self.rows_per_page
        last = (end_row - 1) // self.rows_per_page
        for page in range(first, last + 1):
            self.buffer_manager.write_page((self.object_id, page))

    def _check_rids(self, rids: np.ndarray) -> None:
        if len(rids) and (rids.min() < 0 or rids.max() >= self._size):
            raise StorageError("row id out of range")

    def __repr__(self) -> str:
        return (f"HeapTable({self.schema.name!r}, rows={self.nrows}, "
                f"pages={self.n_pages})")
