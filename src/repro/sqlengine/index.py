"""Index definitions, page geometry, and materialized indexes.

An :class:`IndexDef` is the *logical* identity of an index — table name
plus ordered key columns. It is hashable and is the unit out of which
physical-design configurations are built (the paper's design structures).

:class:`IndexGeometry` captures the page-level shape of an index (entry
width, fanout, leaf pages, height) computed purely from row counts and
column widths. The same formulas serve both materialized indexes and
hypothetical (what-if) ones, so cost estimates are consistent whether or
not an index physically exists.

:class:`Index` is a materialized index: an ``IndexDef`` plus the
table's key columns and rids kept sorted, refreshed after DML.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..errors import SchemaError
from .buffer import BufferManager
from .compression import Compression
from .schema import RID_BYTES, TableSchema
from .storage import HeapTable, PAGE_SIZE_BYTES

#: Per-entry overhead in an index page (slot pointer + alignment).
INDEX_ENTRY_OVERHEAD = 4


def structure_sort_key(definition
                       ) -> Tuple[str, str, Tuple[str, ...], int]:
    """Stable ordering across structure kinds (indexes, views).

    Anything with ``table`` and ``columns`` attributes sorts by
    ``(kind, table, columns, compression)``; indexes come before views
    because 'I' < 'V' via the class names, and compressed variants of
    one logical structure sort NONE < LIGHT < HEAVY. Spaces that use
    only NONE-level structures sort exactly as they did before the
    compression axis existed (the appended element is a constant 0).
    """
    compression = getattr(definition, "compression", Compression.NONE)
    return (type(definition).__name__, definition.table,
            definition.columns, int(compression))

#: Target fill factor of index pages after a build.
INDEX_FILL_FACTOR = 0.85

#: Entries per ``index_build`` fault-site call after a build's entry
#: call. Builds once bulk-loaded a B+-tree of order 64 at an 85 % fill,
#: ``int(64 * 0.85)`` entries per leaf, firing the site once per leaf;
#: keeping that cadence keeps every fault plan's call sequence, and so
#: each chaos run, as it was.
BUILD_FAULT_CHUNK = 54


@dataclass(frozen=True, order=True)
class IndexDef:
    """Logical identity of a (possibly hypothetical) B+-tree index.

    Attributes:
        table: table the index is defined on.
        columns: ordered key columns, e.g. ``("a", "b")``.
        compression: the variant's :class:`Compression` level. Part of
            the definition's identity — ``I(a,b)`` and ``I(a,b)@H``
            are distinct candidates, catalog objects, and cache-key
            members. Defaults to NONE so every pre-compression call
            site builds the exact seed definition.
    """

    table: str
    columns: Tuple[str, ...]
    compression: Compression = Compression.NONE

    def __post_init__(self) -> None:
        if not self.columns:
            raise SchemaError("an index needs at least one key column")
        if len(set(self.columns)) != len(self.columns):
            raise SchemaError(
                f"duplicate key column in index on {self.columns}")

    def __hash__(self) -> int:
        # The kind is part of the hash: the fields alone hash I(a,b)
        # and V(a,b) alike, and every cost-cache key holding one of
        # them would collide with its twin.
        return hash(("index", self.table, self.columns, self.compression))

    @property
    def label(self) -> str:
        """The paper's notation, e.g. ``I(a,b)`` (``I(a,b)@H`` when
        compressed)."""
        return (f"I({','.join(self.columns)})"
                f"{self.compression.suffix}")

    def covers(self, column_names: Sequence[str]) -> bool:
        """True if every referenced column is part of the index key.

        Such an index can answer the query with an index-only scan
        (no heap fetches). Compression never changes coverage — only
        the page/CPU trade-off of using the structure.
        """
        return set(column_names) <= set(self.columns)

    def with_compression(self, compression: Compression) -> "IndexDef":
        """The same logical index at another compression level."""
        return IndexDef(self.table, self.columns, compression)

    def default_name(self) -> str:
        name = f"ix_{self.table}_{'_'.join(self.columns)}"
        if self.compression is not Compression.NONE:
            name += f"_{self.compression.name.lower()}"
        return name

    def __str__(self) -> str:
        return self.label


def compressed_width(raw_width: int,
                     compression: Compression) -> int:
    """Entry/row width after compression, in whole bytes.

    NONE returns ``raw_width`` untouched — no float arithmetic at all,
    so NONE-level geometry is *bitwise* the pre-compression geometry,
    not merely numerically close.
    """
    if compression is Compression.NONE:
        return raw_width
    return max(1, math.ceil(raw_width * compression.page_fraction))


@dataclass(frozen=True)
class IndexGeometry:
    """Page-level shape of an index over ``nrows`` rows.

    Derived deterministically from the schema, so hypothetical and
    materialized indexes cost identically. ``cpu_factor`` and
    ``build_cpu_factor`` carry the compression level's decode/encode
    inflation into the cost model (both exactly ``1.0`` at NONE).
    """

    nrows: int
    entry_width: int
    entries_per_page: int
    leaf_pages: int
    height: int
    total_pages: int
    cpu_factor: float = 1.0
    build_cpu_factor: float = 1.0

    @classmethod
    def compute(cls, schema: TableSchema, columns: Sequence[str],
                nrows: int,
                compression: Compression = Compression.NONE
                ) -> "IndexGeometry":
        entry_width = compressed_width(
            schema.width_of(columns) + RID_BYTES + INDEX_ENTRY_OVERHEAD,
            compression)
        usable = PAGE_SIZE_BYTES * INDEX_FILL_FACTOR
        entries_per_page = max(2, int(usable // entry_width))
        leaf_pages = max(1, math.ceil(nrows / entries_per_page)) \
            if nrows else 1
        # Internal fanout: separators are key-only entries (compressed
        # alongside the leaf entries).
        sep_width = compressed_width(
            schema.width_of(columns) + RID_BYTES, compression)
        fanout = max(2, int(usable // sep_width))
        height = 1
        level_pages = leaf_pages
        total = leaf_pages
        while level_pages > 1:
            level_pages = math.ceil(level_pages / fanout)
            total += level_pages
            height += 1
        return cls(nrows=nrows, entry_width=entry_width,
                   entries_per_page=entries_per_page,
                   leaf_pages=leaf_pages, height=height,
                   total_pages=total,
                   cpu_factor=compression.cpu_factor,
                   build_cpu_factor=compression.build_cpu_factor)

    @property
    def size_bytes(self) -> int:
        return self.total_pages * PAGE_SIZE_BYTES

    def leaf_pages_for(self, n_entries: float) -> int:
        """Leaf pages touched when reading ``n_entries`` consecutive
        entries (at least one page if any entries are read)."""
        if n_entries <= 0:
            return 0
        return max(1, math.ceil(n_entries / self.entries_per_page))


class Index:
    """A materialized index over a heap table: its key columns and rids,
    kept sorted by (key columns, rid).

    The leaf level is the whole in-memory representation; page I/O is
    metered from :class:`IndexGeometry` (B+-tree page shape over
    ``table.nrows`` entries), exactly as the what-if optimizer prices a
    hypothetical index. DML writes the index's root page and marks the
    arrays stale; :meth:`leaf_arrays` re-sorts the heap's live rows on
    the next read.

    Args:
        definition: the logical index identity.
        table: the heap table being indexed.
        buffer_manager: pool used to meter this index's page I/O.
        name: catalog name (defaults to a generated one).
    """

    def __init__(self, definition: IndexDef, table: HeapTable,
                 buffer_manager: BufferManager,
                 name: Optional[str] = None):
        if definition.table != table.schema.name:
            raise SchemaError(
                f"index on {definition.table!r} cannot attach to table "
                f"{table.schema.name!r}")
        for column in definition.columns:
            table.schema.column(column)
        self.definition = definition
        self.name = name or definition.default_name()
        self.table = table
        self.buffer_manager = buffer_manager
        self.object_id = buffer_manager.allocate_object_id()
        self._leaf_cols: Dict[str, np.ndarray] = {}
        self._leaf_rids = np.empty(0, dtype=np.int64)
        self._stale = False
        self._build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _build(self) -> None:
        """Build the leaf level: scan the heap, sort, write every page.

        Charges the classic build cost: one full heap scan plus one
        sequential write of every index page.

        Fault sites: the ``index_build`` hook fires at build entry and
        once per :data:`BUILD_FAULT_CHUNK` entries; every page touch is
        also a ``page_read``/``page_write`` site. The new arrays are
        assigned only after the last site, so a fault anywhere leaves
        the previous ones in place — atomicity of catalog, buffer and
        metrics is the caller's job via :meth:`Database._transition`.
        """
        injector = self.buffer_manager.fault_injector
        if injector is not None:
            injector.on_build_step("index_build", self.definition.label,
                                   self.buffer_manager.metrics)
        self.table.scan_pages()
        cols, rids = self._sorted_leaf()
        if injector is not None:
            for _ in range(0, len(rids), BUILD_FAULT_CHUNK):
                injector.on_build_step("index_build",
                                       self.definition.label,
                                       self.buffer_manager.metrics)
        for page in range(self.geometry().total_pages):
            self.buffer_manager.write_page((self.object_id, page))
        self._leaf_cols, self._leaf_rids = cols, rids
        self._stale = False

    def _sorted_leaf(self) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
        """The heap's live rows sorted by (key columns, rid): the one
        sort behind both the build and the refresh after DML."""
        rids = self.table.live_rids().astype(np.int64)
        keys = [self.table.column_array(c)[rids]
                for c in self.definition.columns]
        # lexsort is stable and takes its primary key last; live rids
        # ascend, so equal keys keep rid order.
        order = np.lexsort(keys[::-1])
        return ({c: key[order]
                 for c, key in zip(self.definition.columns, keys)},
                rids[order])

    # ------------------------------------------------------------------
    # geometry / metering
    # ------------------------------------------------------------------

    def geometry(self) -> IndexGeometry:
        return IndexGeometry.compute(self.table.schema,
                                     self.definition.columns,
                                     self.table.nrows,
                                     self.definition.compression)

    def charge_descent(self) -> None:
        """Meter a root-to-leaf descent (one page per level)."""
        geometry = self.geometry()
        for level in range(geometry.height):
            self.buffer_manager.read_page((self.object_id, level))

    def charge_leaf_pages(self, n_entries: int) -> int:
        """Meter reading ``n_entries`` consecutive leaf entries."""
        geometry = self.geometry()
        pages = geometry.leaf_pages_for(n_entries)
        # Leaf pages are addressed after the descent levels to keep
        # page ids distinct between the two kinds of touches.
        base = geometry.height
        self.buffer_manager.read_pages(
            self.object_id, range(base, base + pages))
        return pages

    def charge_full_leaf_scan(self) -> int:
        geometry = self.geometry()
        base = geometry.height
        self.buffer_manager.read_pages(
            self.object_id, range(base, base + geometry.leaf_pages))
        return geometry.leaf_pages

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def on_insert(self, rid: int) -> None:
        self._on_row_change()

    def on_delete(self, rid: int) -> None:
        self._on_row_change()

    def on_update(self, rid: int) -> None:
        """Row ``rid``'s key changed (callers skip unchanged keys)."""
        self._on_row_change()

    def _on_row_change(self) -> None:
        self._stale = True
        self.buffer_manager.write_page((self.object_id, 0))

    # ------------------------------------------------------------------
    # leaf access
    # ------------------------------------------------------------------

    def leaf_arrays(self) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
        """The sorted leaf level: ``(key columns, rids)``.

        Page charging is the caller's job (via :meth:`charge_leaf_pages`
        etc.). Re-sorted from the heap when DML has made it stale.
        """
        if self._stale:
            self._leaf_cols, self._leaf_rids = self._sorted_leaf()
            self._stale = False
        return self._leaf_cols, self._leaf_rids

    def __repr__(self) -> str:
        return (f"Index({self.definition.label}, name={self.name!r}, "
                f"entries={self.table.nrows})")
