"""Materialized projection views as physical-design structures.

The paper defines a physical design as "a set of structures (e.g.,
indexes or materialized views)". This module adds the second kind: a
*projection view* stores a column subset of its base table in heap
order. It cannot be seeked (that is what indexes are for), but any
query referencing only its columns can scan it instead of the wider
base heap — cheaper in proportion to the width ratio — and it is
cheaper to build than an index (one scan, one write pass, no sort).

Views participate everywhere indexes do: hypothetical view geometry in
the what-if optimizer, a ``view_scan`` access path in the planner
(realized as a :class:`~repro.sqlengine.plan.ScanView` operator in the
shared plan IR, so the what-if optimizer and the executor cost and run
the same tree), metered execution, SIZE/TRANS accounting, and
``Database.apply_configuration``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import SchemaError
from .buffer import BufferManager
from .compression import Compression
from .index import compressed_width
from .schema import TableSchema
from .storage import HeapTable, PAGE_SIZE_BYTES

#: Per-row overhead in a view page (smaller than a heap row header —
#: views carry no null bitmap of their own in this engine).
VIEW_ROW_OVERHEAD = 4

#: Fill factor of view pages.
VIEW_FILL_FACTOR = 0.96


@dataclass(frozen=True)
class ViewDef:
    """Logical identity of a projection view.

    Attributes:
        table: base table.
        columns: the projected columns (stored sorted; a projection
            has no column order).
        compression: the variant's :class:`Compression` level —
            part of the identity, exactly as on
            :class:`~repro.sqlengine.index.IndexDef`.
    """

    table: str
    columns: Tuple[str, ...]
    compression: Compression = Compression.NONE

    def __post_init__(self) -> None:
        if not self.columns:
            raise SchemaError("a view needs at least one column")
        if len(set(self.columns)) != len(self.columns):
            raise SchemaError(
                f"duplicate column in view over {self.columns}")
        object.__setattr__(self, "columns",
                           tuple(sorted(self.columns)))

    def __hash__(self) -> int:
        # The kind is part of the hash, as on IndexDef.
        return hash(("view", self.table, self.columns, self.compression))

    @property
    def label(self) -> str:
        return f"V({','.join(self.columns)}){self.compression.suffix}"

    def covers(self, column_names: Sequence[str]) -> bool:
        """True if every referenced column is stored in the view."""
        return set(column_names) <= set(self.columns)

    def with_compression(self, compression: Compression) -> "ViewDef":
        """The same logical view at another compression level."""
        return ViewDef(self.table, self.columns, compression)

    def default_name(self) -> str:
        name = f"mv_{self.table}_{'_'.join(self.columns)}"
        if self.compression is not Compression.NONE:
            name += f"_{self.compression.name.lower()}"
        return name

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class ViewGeometry:
    """Page-level shape of a (possibly hypothetical) projection view.

    ``cpu_factor``/``build_cpu_factor`` carry the compression level's
    decode/encode inflation (both exactly ``1.0`` at NONE).
    """

    nrows: int
    row_width: int
    rows_per_page: int
    n_pages: int
    cpu_factor: float = 1.0
    build_cpu_factor: float = 1.0

    @classmethod
    def compute(cls, schema: TableSchema, columns: Sequence[str],
                nrows: int,
                compression: Compression = Compression.NONE
                ) -> "ViewGeometry":
        row_width = compressed_width(
            schema.width_of(columns) + VIEW_ROW_OVERHEAD, compression)
        usable = PAGE_SIZE_BYTES * VIEW_FILL_FACTOR
        rows_per_page = max(1, int(usable // row_width))
        n_pages = max(1, math.ceil(nrows / rows_per_page)) if nrows \
            else 1
        return cls(nrows=nrows, row_width=row_width,
                   rows_per_page=rows_per_page, n_pages=n_pages,
                   cpu_factor=compression.cpu_factor,
                   build_cpu_factor=compression.build_cpu_factor)

    @property
    def size_bytes(self) -> int:
        return self.n_pages * PAGE_SIZE_BYTES


class MaterializedView:
    """A materialized projection view over a heap table.

    The view shares the base table's row ids (it is a pure projection),
    so query evaluation reads the base column arrays while page
    *charging* follows the view's narrower geometry — exactly the
    benefit a real projection view provides.
    """

    def __init__(self, definition: ViewDef, table: HeapTable,
                 buffer_manager: BufferManager,
                 name: Optional[str] = None):
        if definition.table != table.schema.name:
            raise SchemaError(
                f"view on {definition.table!r} cannot attach to table "
                f"{table.schema.name!r}")
        for column in definition.columns:
            table.schema.column(column)
        self.definition = definition
        self.name = name or definition.default_name()
        self.table = table
        self.buffer_manager = buffer_manager
        self.object_id = buffer_manager.allocate_object_id()
        self._build()

    def _build(self) -> None:
        """Materialize: scan the base heap, write the view pages.

        The ``view_build`` fault site fires at entry; each page touch
        is additionally a ``page_read``/``page_write`` site. Atomicity
        on fault is the caller's job (:meth:`Database._transition`).
        """
        injector = self.buffer_manager.fault_injector
        if injector is not None:
            injector.on_build_step("view_build", self.definition.label,
                                   self.buffer_manager.metrics)
        self.table.scan_pages()
        geometry = self.geometry()
        for page in range(geometry.n_pages):
            self.buffer_manager.write_page((self.object_id, page))

    def geometry(self) -> ViewGeometry:
        return ViewGeometry.compute(self.table.schema,
                                    self.definition.columns,
                                    self.table.nrows,
                                    self.definition.compression)

    def charge_scan(self) -> int:
        """Meter a full sequential scan of the view."""
        geometry = self.geometry()
        self.buffer_manager.read_range(self.object_id,
                                       geometry.n_pages)
        return geometry.n_pages

    def column_array(self, name: str) -> np.ndarray:
        if name not in self.definition.columns:
            raise SchemaError(
                f"view {self.name!r} does not store column {name!r}")
        return self.table.column_array(name)

    def on_change(self) -> None:
        """DML on the base table: charge one view page write (the
        projection mirrors the change)."""
        self.buffer_manager.write_page((self.object_id, 0))

    def __repr__(self) -> str:
        return (f"MaterializedView({self.definition.label}, "
                f"name={self.name!r})")
