"""The engine's cost model.

Costs are expressed in deterministic *cost units*:

``units = page_reads * io_read_cost + page_writes * io_write_cost
        + cpu_ops * cpu_op_cost``

The same weights are used by the what-if optimizer (estimates) and by
the executor (metered actuals), so estimated EXEC/TRANS values and
measured replay times live on one scale. Page counts are *logical*
touches — deterministic, with no buffer pool to depend on.

Access paths:

* **full scan** — read every heap page, examine every row.
* **index seek** — descend the B+-tree using an equality prefix of the
  key (optionally followed by a range on the next key column), read the
  matching leaf pages, then fetch qualifying heap rows unless the index
  covers every referenced column.
* **index-only scan** — read the whole leaf level of a covering index
  instead of the (wider) heap. This path is what makes ``I(a,b)``
  preferable to ``I(a)`` under the paper's query mix A, and is required
  to reproduce Table 2.

Transitions (the paper's TRANS) price index builds as a heap scan plus
a sort plus writing every index page; drops cost a catalog touch.

Compression: a compressed structure's geometry reports fewer pages but
carries ``cpu_factor``/``build_cpu_factor`` inflation (decode on read,
encode on build). Every CPU charge below multiplies by the relevant
factor; at level NONE the factors are exactly ``1.0`` (and the insert
path's extra maintenance term exactly ``0.0``), so the uncompressed
cost model is *bitwise* the pre-compression one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from .index import IndexGeometry, structure_sort_key
from .stats import TableStats


@dataclass(frozen=True)
class CostParams:
    """Weights of the cost model.

    The defaults approximate a disk-resident system: a page read is
    thousands of times a per-row CPU operation, random row fetches pay
    an extra factor, and writes are costlier than reads.
    """

    io_read_cost: float = 1.0
    io_write_cost: float = 2.0
    random_io_factor: float = 2.5
    cpu_tuple_cost: float = 0.001
    cpu_index_tuple_cost: float = 0.0005
    cpu_sort_factor: float = 0.002
    #: Flat TRANS charge per dropped structure, in *cost units* (it is
    #: a catalog update, not a page-write count — see
    #: :func:`cost_drop_index`). Historically expressed as 10 page
    #: writes, which ``io_write_cost`` silently scaled to 20 units; the
    #: charge is now explicit and independent of the write weight.
    drop_index_cost: float = 20.0

    def units(self, page_reads: float, page_writes: float,
              cpu_ops: float) -> float:
        return (page_reads * self.io_read_cost +
                page_writes * self.io_write_cost + cpu_ops)


@dataclass(frozen=True)
class Cost:
    """A cost estimate with its breakdown.

    ``cpu_units`` is already weighted (cost units, not raw operation
    counts); the page counters are raw pages.
    """

    page_reads: float = 0.0
    page_writes: float = 0.0
    cpu_units: float = 0.0

    def total(self, params: CostParams) -> float:
        return params.units(self.page_reads, self.page_writes,
                            self.cpu_units)

    def __add__(self, other: "Cost") -> "Cost":
        return Cost(self.page_reads + other.page_reads,
                    self.page_writes + other.page_writes,
                    self.cpu_units + other.cpu_units)


def cost_full_scan(stats: TableStats, params: CostParams) -> Cost:
    """Sequentially read every heap page and examine every row."""
    return Cost(page_reads=float(stats.n_pages),
                cpu_units=stats.nrows * params.cpu_tuple_cost)


def cost_seek_entries(stats: TableStats, geometry: IndexGeometry,
                      key_selectivity: float,
                      params: CostParams) -> Cost:
    """Descend the tree and read the leaf entries a seek prefix
    selects — the index-side half of a seek, no heap access.

    This is the estimate of the :class:`~repro.sqlengine.plan.SeekIndex`
    plan operator.
    """
    matched = key_selectivity * stats.nrows
    reads = float(geometry.height)
    reads += geometry.leaf_pages_for(matched)
    cpu = matched * params.cpu_index_tuple_cost * geometry.cpu_factor
    return Cost(page_reads=reads, cpu_units=cpu)


def cost_heap_fetch(stats: TableStats, key_selectivity: float,
                    residual_selectivity: float,
                    params: CostParams) -> Cost:
    """Fetch the qualifying heap rows behind a non-covering seek — the
    estimate of the :class:`~repro.sqlengine.plan.FetchHeap` operator.

    ``residual_selectivity`` is the fraction of seek output that also
    passes predicates answerable from the index key (those filter
    entries before any heap fetch).
    """
    matched = key_selectivity * stats.nrows
    fetched = matched * residual_selectivity
    # Unclustered heap fetches: each qualifying row costs a random
    # page read, capped by the table size (big scans degrade to the
    # sequential bound).
    random_reads = min(fetched * params.random_io_factor,
                       float(stats.n_pages))
    return Cost(page_reads=random_reads,
                cpu_units=fetched * params.cpu_tuple_cost)


def cost_index_seek(stats: TableStats, geometry: IndexGeometry,
                    key_selectivity: float, covering: bool,
                    residual_selectivity: float,
                    params: CostParams) -> Cost:
    """Seek with an equality/range prefix selecting ``key_selectivity``
    of the rows; fetch heap rows unless ``covering``.

    Composition of :func:`cost_seek_entries` and (when not covering)
    :func:`cost_heap_fetch` — exactly the sum the plan IR's operator
    estimates produce for the same pipeline.
    """
    cost = cost_seek_entries(stats, geometry, key_selectivity, params)
    if not covering:
        cost = cost + cost_heap_fetch(stats, key_selectivity,
                                      residual_selectivity, params)
    return cost


def cost_index_only_scan(stats: TableStats, geometry: IndexGeometry,
                         params: CostParams) -> Cost:
    """Scan the full leaf level of a covering index (fewer leaf pages
    when compressed, decode CPU per entry)."""
    return Cost(page_reads=float(geometry.leaf_pages),
                cpu_units=stats.nrows * params.cpu_index_tuple_cost *
                geometry.cpu_factor)


def cost_build_index(stats: TableStats, geometry: IndexGeometry,
                     params: CostParams) -> Cost:
    """Build an index: scan the heap, sort (and, when compressed,
    encode) the entries, write the tree."""
    n = max(1, stats.nrows)
    sort_cpu = (params.cpu_sort_factor * n * math.log2(n + 1) / 1000.0
                * geometry.build_cpu_factor)
    return Cost(page_reads=float(stats.n_pages),
                page_writes=float(geometry.total_pages),
                cpu_units=sort_cpu)


def cost_drop_index(params: CostParams) -> Cost:
    """Drop an index or view: a catalog update plus page deallocation,
    charged *directly in cost units*.

    ``drop_index_cost`` is the intended TRANS charge itself, not a
    page-write count — the historical code charged it through
    ``page_writes``, silently scaling it by ``io_write_cost``, so the
    documented parameter and the charged units disagreed by 2x.
    """
    return Cost(cpu_units=params.drop_index_cost)


def cost_sort(n_rows: float, params: CostParams) -> Cost:
    """In-memory sort of ``n_rows`` result rows (ORDER BY without an
    order-providing access path)."""
    n = max(1.0, n_rows)
    return Cost(cpu_units=params.cpu_sort_factor * n *
                math.log2(n + 1))


def cost_view_scan(stats: TableStats, n_view_pages: int,
                   params: CostParams,
                   cpu_factor: float = 1.0) -> Cost:
    """Sequentially read every page of a projection view and examine
    every row (narrower pages than the base heap; ``cpu_factor``
    carries a compressed view's per-row decode inflation)."""
    return Cost(page_reads=float(n_view_pages),
                cpu_units=stats.nrows * params.cpu_tuple_cost *
                cpu_factor)


def cost_build_view(stats: TableStats, n_view_pages: int,
                    params: CostParams,
                    build_cpu_factor: float = 1.0) -> Cost:
    """Materialize a projection view: scan the heap, write the view
    pages — no sort, unlike an index build. ``build_cpu_factor``
    carries a compressed view's encode inflation."""
    return Cost(page_reads=float(stats.n_pages),
                page_writes=float(n_view_pages),
                cpu_units=stats.nrows * params.cpu_tuple_cost *
                build_cpu_factor)


def cost_insert(stats: TableStats, n_indexes: int,
                params: CostParams,
                extra_maintenance_cpu: float = 0.0) -> Cost:
    """Append one row and maintain each structure (descent + leaf
    write).

    ``extra_maintenance_cpu`` is the summed per-structure CPU
    *surcharge* factor from compression, i.e.
    ``sum(cpu_factor(s) - 1 for s in structures on the table)`` — an
    additive term so an all-NONE design (surcharge exactly ``0.0``)
    costs bitwise what it did before the compression axis.
    """
    return Cost(page_reads=float(n_indexes) * 2.0,
                page_writes=1.0 + n_indexes,
                cpu_units=(1 + n_indexes) * params.cpu_tuple_cost +
                extra_maintenance_cpu * params.cpu_tuple_cost)


def maintenance_surcharge(structures) -> float:
    """``sum(cpu_factor(s) - 1)`` over ``structures`` (all on one
    table): the compression surcharge of :func:`cost_insert` and of an
    UPDATE's or DELETE's write term. Summed in
    :func:`~.index.structure_sort_key` order so the float fold is the
    same in every process; exactly ``0.0`` when every structure is at
    level NONE."""
    surcharge = 0.0
    for definition in sorted(structures, key=structure_sort_key):
        surcharge += definition.compression.cpu_factor - 1.0
    return surcharge


@dataclass
class MeteredCost:
    """Mutable accumulator used by the executor; convertible to Cost."""

    page_reads: float = 0.0
    page_writes: float = 0.0
    cpu_units: float = 0.0
    rows_returned: int = 0

    def add_reads(self, pages: float) -> None:
        self.page_reads += pages

    def add_writes(self, pages: float) -> None:
        self.page_writes += pages

    def add_cpu(self, units: float) -> None:
        self.cpu_units += units

    def freeze(self) -> Cost:
        return Cost(self.page_reads, self.page_writes, self.cpu_units)

    def total(self, params: CostParams) -> float:
        return self.freeze().total(params)
