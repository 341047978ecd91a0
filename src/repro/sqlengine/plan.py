"""The physical-plan IR shared by planner, executor, and what-if
optimizer.

One statement, one plan tree. The planner
(:func:`~repro.sqlengine.planner.enumerate_access_paths`) emits trees
of the operators defined here; the executor is a thin interpreter that
calls :meth:`PlanNode.run`; the what-if optimizer costs the *same*
objects through :meth:`PlanNode.estimate`. Because there is exactly one
costing path and one execution path per operator, estimate-vs-metered
agreement is structural, not coincidental — a hypothetical index is
nothing more than a catalog substitution at plan-build time (the
:class:`~repro.sqlengine.index.IndexGeometry` embedded in the node is
computed from statistics, identically for materialized and
hypothetical structures).

Operators
---------

* :class:`ScanHeap` — sequential heap scan with vectorized predicate
  evaluation.
* :class:`ScanView` — the same scan over a projection view's narrower
  pages.
* :class:`SeekIndex` — B+-tree descent on an equality prefix
  (optionally a range on the next key column); yields leaf entries.
* :class:`ScanIndexLeaf` — full leaf-level scan of a covering index.
* :class:`Filter` — residual predicate evaluation on a row stream.
* :class:`FetchHeap` — random heap fetches behind a non-covering seek.
* :class:`Sort` — ORDER BY (a no-op reversal when the child already
  provides the order).
* :class:`Project` — output-column projection (re-checks non-key
  predicates on heap-backed streams, exactly as a real engine's
  recheck node would).
* :class:`Aggregate` / :class:`GroupAggregate` — aggregate folds.

Every operator is a frozen dataclass, so plan trees compare by
structure: the verification harness asserts the what-if optimizer and
the executor pick *bit-identical* trees for every statement ×
configuration.

Runtime row carriers
--------------------

Operators exchange :class:`HeapStream` (heap row ids) or
:class:`LeafStream` (positions in an index's sorted leaf level); the
root operators (:class:`Project` and the aggregates) turn streams into
plain row tuples. :meth:`PlanNode.locate` is the DML entry point: it
runs the pipeline just far enough to produce the matching heap row
ids, without charging output-side work (heap fetch, sort) that
UPDATE/DELETE row targeting does not perform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, List, Sequence, Tuple, Union)

import numpy as np

from .costmodel import (Cost, CostParams, MeteredCost, cost_full_scan,
                        cost_heap_fetch, cost_index_only_scan,
                        cost_seek_entries, cost_sort, cost_view_scan)
from .index import Index, IndexDef, IndexGeometry
from .stats import TableStats, combined_selectivity
from .storage import HeapTable
from .types import Value
from .views import MaterializedView, ViewDef

if TYPE_CHECKING:  # planner imports plan; annotations only, no cycle
    from .buffer import BufferManager
    from .planner import QueryInfo, RangeSpec


# ----------------------------------------------------------------------
# runtime context and row streams
# ----------------------------------------------------------------------

@dataclass
class PlanRuntime:
    """Everything an operator needs to execute and meter itself."""

    table: HeapTable
    indexes: Dict[IndexDef, Index]
    views: Dict[ViewDef, MaterializedView]
    buffer_manager: "BufferManager"
    params: CostParams
    metered: MeteredCost


@dataclass
class HeapStream:
    """Row ids into the heap (full scans, view scans, fetched seeks)."""

    table: HeapTable
    rids: np.ndarray

    def __len__(self) -> int:
        return len(self.rids)

    def column(self, name: str) -> np.ndarray:
        return self.table.column_array(name)[self.rids]

    def select(self, mask: np.ndarray) -> "HeapStream":
        return HeapStream(self.table, self.rids[mask])

    def take(self, order: np.ndarray) -> "HeapStream":
        return HeapStream(self.table, self.rids[order])

    def reverse(self) -> "HeapStream":
        return HeapStream(self.table, self.rids[::-1])


@dataclass
class LeafStream:
    """Positions into an index's sorted leaf arrays (seeks, covering
    scans); carries the key columns, so covering plans never touch the
    heap."""

    cols: Dict[str, np.ndarray]
    leaf_rids: np.ndarray
    positions: np.ndarray

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def rids(self) -> np.ndarray:
        return self.leaf_rids[self.positions]

    def column(self, name: str) -> np.ndarray:
        return self.cols[name][self.positions]

    def select(self, mask: np.ndarray) -> "LeafStream":
        return LeafStream(self.cols, self.leaf_rids,
                          self.positions[mask])

    def take(self, order: np.ndarray) -> "LeafStream":
        return LeafStream(self.cols, self.leaf_rids,
                          self.positions[order])

    def reverse(self) -> "LeafStream":
        return LeafStream(self.cols, self.leaf_rids,
                          self.positions[::-1])


Stream = Union[HeapStream, LeafStream]
Rows = List[Tuple[Value, ...]]


# ----------------------------------------------------------------------
# operator base
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PlanNode:
    """One physical operator; knows how to cost and execute itself."""

    def estimate(self, stats: TableStats, params: CostParams) -> Cost:
        """Cumulative estimated cost of this subtree."""
        raise NotImplementedError

    def run(self, runtime: PlanRuntime):
        """Execute the subtree, metering through ``runtime.metered``."""
        raise NotImplementedError

    def locate(self, runtime: PlanRuntime):
        """Run just far enough to yield matching heap rids (DML row
        targeting: no heap-fetch or sort charges)."""
        raise NotImplementedError

    def children(self) -> Tuple["PlanNode", ...]:
        child = getattr(self, "child", None)
        return (child,) if child is not None else ()

    def label(self) -> str:
        raise NotImplementedError

    def explain(self, stats: TableStats = None,
                params: CostParams = None) -> str:
        """Render the subtree, one operator per line; with ``stats``
        and ``params``, each line carries the subtree's estimated cost
        units."""
        lines: List[str] = []
        self._render(lines, "", True, True, stats, params)
        return "\n".join(lines)

    def _render(self, lines: List[str], prefix: str, last: bool,
                root: bool, stats, params) -> None:
        text = self.label()
        if stats is not None and params is not None:
            total = self.estimate(stats, params).total(params)
            text += f"  cost={total:.2f}"
        if root:
            lines.append(text)
            child_prefix = ""
        else:
            connector = "└─ " if last else "├─ "
            lines.append(prefix + connector + text)
            child_prefix = prefix + ("   " if last else "│  ")
        kids = self.children()
        for i, kid in enumerate(kids):
            kid._render(lines, child_prefix, i == len(kids) - 1,
                        False, stats, params)


# ----------------------------------------------------------------------
# leaf operators (access methods)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ScanHeap(PlanNode):
    """Sequential heap scan evaluating every predicate vectorized."""

    info: "QueryInfo"

    def estimate(self, stats, params) -> Cost:
        return cost_full_scan(stats, params)

    def run(self, runtime: PlanRuntime) -> HeapStream:
        table = runtime.table
        pages = table.scan_pages()
        runtime.metered.add_reads(pages)
        runtime.metered.add_cpu(table.nslots *
                                runtime.params.cpu_tuple_cost)
        mask = table.valid_mask().copy()
        for column, value in self.info.eq_predicates.items():
            mask &= table.column_array(column) == value
        for column, spec in self.info.range_predicates.items():
            mask &= range_mask(table.column_array(column), spec)
        for predicate in self.info.neq_predicates:
            mask &= (table.column_array(predicate.column)
                     != predicate.value)
        return HeapStream(table, np.nonzero(mask)[0])

    def locate(self, runtime: PlanRuntime) -> HeapStream:
        return self.run(runtime)

    def label(self) -> str:
        return f"ScanHeap({self.info.table})"


@dataclass(frozen=True)
class ScanView(PlanNode):
    """Scan a projection view: identical predicate evaluation to a
    heap scan (views share the base table's row ids), charged at the
    view's narrower page geometry."""

    info: "QueryInfo"
    view: ViewDef
    n_pages: int

    def estimate(self, stats, params) -> Cost:
        return cost_view_scan(stats, self.n_pages, params,
                              self.view.compression.cpu_factor)

    def run(self, runtime: PlanRuntime) -> HeapStream:
        view = runtime.views[self.view]
        pages = view.charge_scan()
        runtime.metered.add_reads(pages)
        runtime.metered.add_cpu(runtime.table.nslots *
                                runtime.params.cpu_tuple_cost *
                                self.view.compression.cpu_factor)
        mask = runtime.table.valid_mask().copy()
        for column, value in self.info.eq_predicates.items():
            mask &= view.column_array(column) == value
        for column, spec in self.info.range_predicates.items():
            mask &= range_mask(view.column_array(column), spec)
        for predicate in self.info.neq_predicates:
            mask &= (view.column_array(predicate.column)
                     != predicate.value)
        return HeapStream(runtime.table, np.nonzero(mask)[0])

    def locate(self, runtime: PlanRuntime) -> HeapStream:
        return self.run(runtime)

    def label(self) -> str:
        return f"ScanView({self.view.label})"


@dataclass(frozen=True)
class SeekIndex(PlanNode):
    """B+-tree descent narrowing by an equality prefix, then an
    optional range on the next key column; yields the leaf entries in
    the seek interval (residual key filtering is a separate
    :class:`Filter`)."""

    info: "QueryInfo"
    index: IndexDef
    geometry: IndexGeometry
    eq_prefix_len: int
    uses_range: bool

    def estimate(self, stats, params) -> Cost:
        key_sel = seek_key_selectivity(self.info, stats,
                                       self.index.columns,
                                       self.eq_prefix_len,
                                       self.uses_range)
        return cost_seek_entries(stats, self.geometry, key_sel, params)

    def run(self, runtime: PlanRuntime) -> LeafStream:
        index = runtime.indexes[self.index]
        cols, rids = index.leaf_arrays()
        lo, hi = 0, len(rids)
        # Narrow by the equality prefix, column by column; within an
        # equal prefix the next key column is sorted, so searchsorted
        # stays valid at each step.
        for column in self.index.columns[:self.eq_prefix_len]:
            data = cols[column][lo:hi]
            value = self.info.eq_predicates[column]
            lo_off = int(np.searchsorted(data, value, side="left"))
            hi_off = int(np.searchsorted(data, value, side="right"))
            lo, hi = lo + lo_off, lo + hi_off
        if self.uses_range:
            column = self.index.columns[self.eq_prefix_len]
            spec = self.info.range_predicates[column]
            data = cols[column][lo:hi]
            if spec.lo is not None:
                side = "left" if spec.lo_inclusive else "right"
                lo_off = int(np.searchsorted(data, spec.lo, side=side))
            else:
                lo_off = 0
            if spec.hi is not None:
                side = "right" if spec.hi_inclusive else "left"
                hi_off = int(np.searchsorted(data, spec.hi, side=side))
            else:
                hi_off = len(data)
            lo, hi = lo + lo_off, lo + hi_off
        n_entries = hi - lo
        index.charge_descent()
        pages = index.charge_leaf_pages(max(n_entries, 1))
        runtime.metered.add_reads(index.geometry().height + pages)
        runtime.metered.add_cpu(n_entries *
                                runtime.params.cpu_index_tuple_cost *
                                self.index.compression.cpu_factor)
        return LeafStream(cols, rids,
                          np.arange(lo, hi, dtype=np.int64))

    def locate(self, runtime: PlanRuntime) -> LeafStream:
        return self.run(runtime)

    def label(self) -> str:
        parts = [self.index.label, f"eq_prefix={self.eq_prefix_len}"]
        if self.uses_range:
            parts.append("range")
        return f"SeekIndex({', '.join(parts)})"


@dataclass(frozen=True)
class ScanIndexLeaf(PlanNode):
    """Read the whole leaf level of a covering index instead of the
    (wider) heap."""

    index: IndexDef
    geometry: IndexGeometry

    def estimate(self, stats, params) -> Cost:
        return cost_index_only_scan(stats, self.geometry, params)

    def run(self, runtime: PlanRuntime) -> LeafStream:
        index = runtime.indexes[self.index]
        cols, rids = index.leaf_arrays()
        pages = index.charge_full_leaf_scan()
        runtime.metered.add_reads(pages)
        runtime.metered.add_cpu(len(rids) *
                                runtime.params.cpu_index_tuple_cost *
                                self.index.compression.cpu_factor)
        return LeafStream(cols, rids,
                          np.arange(len(rids), dtype=np.int64))

    def locate(self, runtime: PlanRuntime) -> LeafStream:
        return self.run(runtime)

    def label(self) -> str:
        return f"ScanIndexLeaf({self.index.label})"


# ----------------------------------------------------------------------
# interior operators
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Filter(PlanNode):
    """Residual predicate evaluation over a stream's visible columns.

    Selectivity is already folded into the downstream operators'
    estimates (the planner's ``in_key_residual``), so a Filter adds no
    estimated cost of its own.
    """

    child: PlanNode
    eq: Tuple[Tuple[str, Value], ...] = ()
    ranges: Tuple[Tuple[str, "RangeSpec"], ...] = ()
    neq: Tuple[Tuple[str, Value], ...] = ()

    def estimate(self, stats, params) -> Cost:
        return self.child.estimate(stats, params)

    def _apply(self, stream: Stream) -> Stream:
        mask = np.ones(len(stream), dtype=bool)
        for column, value in self.eq:
            mask &= stream.column(column) == value
        for column, spec in self.ranges:
            mask &= range_mask(stream.column(column), spec)
        for column, value in self.neq:
            mask &= stream.column(column) != value
        return stream.select(mask)

    def run(self, runtime: PlanRuntime) -> Stream:
        return self._apply(self.child.run(runtime))

    def locate(self, runtime: PlanRuntime) -> Stream:
        return self._apply(self.child.locate(runtime))

    def label(self) -> str:
        parts = [f"{c} = {v!r}" for c, v in self.eq]
        parts.extend(f"{c} in {_range_text(s)}"
                     for c, s in self.ranges)
        parts.extend(f"{c} != {v!r}" for c, v in self.neq)
        return f"Filter({', '.join(parts)})"


@dataclass(frozen=True)
class FetchHeap(PlanNode):
    """Random heap fetches for the rows a non-covering seek selected.

    ``locate`` skips the fetch charges entirely: DML row targeting
    needs the rids, not the row contents.
    """

    child: PlanNode
    info: "QueryInfo"
    index: IndexDef
    eq_prefix_len: int
    uses_range: bool

    def estimate(self, stats, params) -> Cost:
        key_sel = seek_key_selectivity(self.info, stats,
                                       self.index.columns,
                                       self.eq_prefix_len,
                                       self.uses_range)
        residual = in_key_residual_selectivity(
            self.info, stats, self.index.columns, self.eq_prefix_len,
            self.uses_range)
        return self.child.estimate(stats, params) + cost_heap_fetch(
            stats, key_sel, residual, params)

    def run(self, runtime: PlanRuntime) -> HeapStream:
        stream = self.child.run(runtime)
        rids = stream.rids
        if len(rids):
            pages = np.unique(rids // runtime.table.rows_per_page)
            runtime.buffer_manager.read_pages(
                runtime.table.object_id, (int(p) for p in pages))
            runtime.metered.add_reads(float(len(pages)) *
                                      runtime.params.random_io_factor)
            runtime.metered.add_cpu(len(rids) *
                                    runtime.params.cpu_tuple_cost)
        return HeapStream(runtime.table, rids)

    def locate(self, runtime: PlanRuntime) -> HeapStream:
        stream = self.child.locate(runtime)
        return HeapStream(runtime.table, stream.rids)

    def label(self) -> str:
        return f"FetchHeap({self.info.table})"


@dataclass(frozen=True)
class Sort(PlanNode):
    """ORDER BY: a stable in-memory sort of the stream — or, when the
    child already provides the order (``presorted``), a free pass
    (reversed for DESC)."""

    child: PlanNode
    column: str
    descending: bool
    presorted: bool
    est_rows: float

    def estimate(self, stats, params) -> Cost:
        base = self.child.estimate(stats, params)
        if self.presorted:
            return base
        return base + cost_sort(self.est_rows, params)

    def run(self, runtime: PlanRuntime) -> Stream:
        stream = self.child.run(runtime)
        if len(stream) == 0:
            return stream
        if self.presorted:
            return stream.reverse() if self.descending else stream
        values = stream.column(self.column)
        order = np.argsort(values, kind="stable")
        if self.descending:
            order = order[::-1]
        runtime.metered.add_cpu(
            runtime.params.cpu_sort_factor * len(stream) *
            max(1.0, np.log2(len(stream) + 1)))
        return stream.take(order)

    def locate(self, runtime: PlanRuntime) -> Stream:
        # Row targeting is order-insensitive: skip the sort (and its
        # CPU charge) entirely.
        return self.child.locate(runtime)

    def label(self) -> str:
        direction = " DESC" if self.descending else ""
        note = ", presorted" if self.presorted else ""
        return f"Sort({self.column}{direction}{note})"


@dataclass(frozen=True)
class Project(PlanNode):
    """Project the output columns out of the stream.

    Heap-backed streams get the non-key predicates re-checked against
    the heap first (the full-scan/view paths evaluated them already,
    making it a no-op there; the fetch path genuinely needs it).
    Covering streams project straight from the leaf columns.
    """

    child: PlanNode
    info: "QueryInfo"

    def estimate(self, stats, params) -> Cost:
        return self.child.estimate(stats, params)

    def run(self, runtime: PlanRuntime) -> Rows:
        stream = self.child.run(runtime)
        if isinstance(stream, LeafStream):
            out_cols = [stream.column(c)
                        for c in self.info.select_columns]
            return rows_from_columns(out_cols, len(stream))
        rids = stream.rids
        out_cols = [runtime.table.column_array(c)[rids]
                    for c in self.info.select_columns]
        selected = np.nonzero(self._heap_recheck(runtime, rids))[0]
        out_cols = [c[selected] for c in out_cols]
        return rows_from_columns(out_cols, len(selected))

    def locate(self, runtime: PlanRuntime) -> np.ndarray:
        stream = self.child.locate(runtime)
        rids = stream.rids
        if len(rids) == 0:
            return np.asarray(rids, dtype=np.int64)
        return rids[self._heap_recheck(runtime, rids)]

    def _heap_recheck(self, runtime: PlanRuntime,
                      rids: np.ndarray) -> np.ndarray:
        table = runtime.table
        mask = np.ones(len(rids), dtype=bool)
        for column, value in self.info.eq_predicates.items():
            mask &= table.column_array(column)[rids] == value
        for column, spec in self.info.range_predicates.items():
            mask &= range_mask(table.column_array(column)[rids], spec)
        for predicate in self.info.neq_predicates:
            mask &= (table.column_array(predicate.column)[rids]
                     != predicate.value)
        return mask

    def label(self) -> str:
        return f"Project({', '.join(self.info.select_columns)})"


@dataclass(frozen=True)
class Aggregate(PlanNode):
    """Fold the projected rows into one aggregate tuple."""

    child: PlanNode
    info: "QueryInfo"

    def estimate(self, stats, params) -> Cost:
        return self.child.estimate(stats, params)

    def run(self, runtime: PlanRuntime) -> Rows:
        return [aggregate_rows(self.info, self.child.run(runtime))]

    def locate(self, runtime: PlanRuntime):
        return self.child.locate(runtime)

    def label(self) -> str:
        return (f"Aggregate("
                f"{', '.join(a.sql() for a in self.info.aggregates)})")


@dataclass(frozen=True)
class GroupAggregate(PlanNode):
    """GROUP BY fold: one row per distinct group value, ordered by the
    group value."""

    child: PlanNode
    info: "QueryInfo"

    def estimate(self, stats, params) -> Cost:
        return self.child.estimate(stats, params)

    def run(self, runtime: PlanRuntime) -> Rows:
        return group_and_aggregate(self.info, self.child.run(runtime))

    def locate(self, runtime: PlanRuntime):
        return self.child.locate(runtime)

    def label(self) -> str:
        aggregates = ', '.join(a.sql() for a in self.info.aggregates)
        return f"GroupAggregate({self.info.group_by}; {aggregates})"


# ----------------------------------------------------------------------
# shared estimation helpers
# ----------------------------------------------------------------------

def seek_key_selectivity(info: "QueryInfo", stats: TableStats,
                         columns: Sequence[str], eq_prefix_len: int,
                         uses_range: bool) -> float:
    """Selectivity of a seek's equality prefix plus optional range —
    the exact product the planner's enumeration uses."""
    selectivities: List[float] = []
    for column in columns[:eq_prefix_len]:
        selectivities.append(stats.column(column).selectivity_eq(
            info.eq_predicates[column]))
    if uses_range:
        column = columns[eq_prefix_len]
        spec = info.range_predicates[column]
        selectivities.append(stats.column(column).selectivity_range(
            spec.lo, spec.hi, spec.lo_inclusive, spec.hi_inclusive))
    return combined_selectivity(selectivities)


def in_key_residual_selectivity(info: "QueryInfo", stats: TableStats,
                                columns: Sequence[str],
                                eq_prefix_len: int,
                                uses_range: bool) -> float:
    """Fraction of seek output that passes the predicates on *other
    key columns* (they filter entries before any heap fetch)."""
    from .planner import predicate_selectivity
    seek_columns = set(columns[:eq_prefix_len])
    if uses_range:
        seek_columns.add(columns[eq_prefix_len])
    return combined_selectivity([
        predicate_selectivity(info, stats, c)
        for c in info.predicate_columns
        if c in columns and c not in seek_columns])


# ----------------------------------------------------------------------
# shared execution helpers
# ----------------------------------------------------------------------

def range_mask(data: np.ndarray, spec: "RangeSpec") -> np.ndarray:
    mask = np.ones(len(data), dtype=bool)
    if spec.lo is not None:
        mask &= (data >= spec.lo) if spec.lo_inclusive else (data > spec.lo)
    if spec.hi is not None:
        mask &= (data <= spec.hi) if spec.hi_inclusive else (data < spec.hi)
    return mask


def rows_from_columns(columns: Sequence[np.ndarray],
                      n_rows: int) -> Rows:
    out: Rows = []
    for i in range(n_rows):
        out.append(tuple(scalar_value(col[i]) for col in columns))
    return out


def scalar_value(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.str_):
        return str(value)
    return value


def aggregate_rows(info: "QueryInfo",
                   rows: Sequence[Tuple[Value, ...]]
                   ) -> Tuple[Value, ...]:
    """Fold projected rows into one aggregate tuple.

    SQL semantics on empty input: COUNT -> 0, the rest -> None.
    ``rows`` are projections of ``info.select_columns`` (the distinct
    aggregate input columns).
    """
    position = {column: i
                for i, column in enumerate(info.select_columns)}
    out = []
    for aggregate in info.aggregates:
        if aggregate.func == "COUNT" and aggregate.column is None:
            out.append(len(rows))
            continue
        values = [row[position[aggregate.column]] for row in rows]
        if aggregate.func == "COUNT":
            out.append(len(values))
        elif not values:
            out.append(None)
        elif aggregate.func == "MIN":
            out.append(min(values))
        elif aggregate.func == "MAX":
            out.append(max(values))
        elif aggregate.func == "SUM":
            out.append(sum(values))
        else:  # AVG
            out.append(sum(values) / len(values))
    return tuple(out)


def group_and_aggregate(info: "QueryInfo",
                        rows: Sequence[Tuple[Value, ...]]
                        ) -> Rows:
    """GROUP BY fold: one output row per distinct group value, shaped
    ``(group_value, *aggregates)``, ordered by the group value
    (descending when ORDER BY ... DESC names the group column)."""
    group_position = {column: i for i, column
                      in enumerate(info.select_columns)}[info.group_by]
    groups: Dict[Value, List[Tuple[Value, ...]]] = {}
    for row in rows:
        groups.setdefault(row[group_position], []).append(row)
    descending = (info.order_by is not None and
                  info.order_by.descending)
    out: Rows = []
    for value in sorted(groups, reverse=descending):
        folded = aggregate_rows(info, groups[value])
        out.append((value,) + folded)
    return out


def _range_text(spec: "RangeSpec") -> str:
    lo = "(" if not spec.lo_inclusive else "["
    hi = ")" if not spec.hi_inclusive else "]"
    lo_value = "-inf" if spec.lo is None else repr(spec.lo)
    hi_value = "+inf" if spec.hi is None else repr(spec.hi)
    return f"{lo}{lo_value}, {hi_value}{hi}"
