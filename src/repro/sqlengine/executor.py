"""Statement execution: a thin interpreter over the physical-plan IR.

The executor analyzes a statement, asks the planner for the cheapest
:class:`~repro.sqlengine.planner.AccessPath`, and then simply runs the
plan tree the path carries — every operator meters its own page
touches and CPU through the shared :class:`PlanRuntime`, in the same
cost units the what-if optimizer estimates with. There is no
per-access-path dispatch here: the plan objects the what-if optimizer
costs are the plan objects that execute.

What remains outside the IR is statement-level orchestration: the
unsatisfiable-predicate shortcut, the MIN/MAX-via-index shortcut,
LIMIT, and DML index/view maintenance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import EngineError, PlanningError, StorageError
from .buffer import BufferManager
from .costmodel import CostParams, MeteredCost, maintenance_surcharge
from .index import Index, IndexDef, structure_sort_key
from .plan import PlanRuntime, aggregate_rows, scalar_value
from .planner import (AccessPath, QueryInfo, analyze_select,
                      choose_access_path)
from .sql.ast import (DeleteStmt, InsertStmt, SelectStmt, UpdateStmt)
from .stats import TableStats
from .storage import HeapTable
from .types import Value


@dataclass
class QueryResult:
    """Rows plus the metered cost of producing them."""

    rows: List[Tuple[Value, ...]]
    metrics: MeteredCost
    access_path: Optional[AccessPath] = None

    def units(self, params: CostParams) -> float:
        return self.metrics.total(params)

    def __len__(self) -> int:
        return len(self.rows)


class Executor:
    """Executes statements against one table's physical structures.

    Args:
        table: the heap table.
        indexes: materialized indexes, keyed by definition.
        buffer_manager: shared pool for page charging.
        params: cost-model weights (metering scale).
    """

    def __init__(self, table: HeapTable, indexes: Dict[IndexDef, Index],
                 buffer_manager: BufferManager, params: CostParams,
                 views: Optional[Dict] = None):
        self.table = table
        self.indexes = indexes
        self.views = views or {}
        self.buffer_manager = buffer_manager
        self.params = params

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------

    def plan_select(self, stmt: SelectStmt, stats: TableStats,
                    info: Optional[QueryInfo] = None,
                    with_views: bool = True) -> AccessPath:
        """Choose the cheapest plan for a SELECT against the *current*
        catalog — the same choice the what-if optimizer makes for the
        same configuration, because both call the same planner with
        identically sorted candidate structures."""
        if info is None:
            info = analyze_select(stmt, self.table.schema)
        # Sorted candidate order: plan tie-breaking must not depend
        # on index-creation order (the what-if optimizer sorts too).
        pairs = [(d, self.indexes[d].geometry())
                 for d in sorted(self.indexes, key=structure_sort_key)]
        view_pairs = [(d, self.views[d].geometry())
                      for d in sorted(self.views,
                                      key=structure_sort_key)] \
            if with_views else []
        return choose_access_path(info, stats, pairs, self.params,
                                  views=view_pairs)

    def _runtime(self, metered: MeteredCost) -> PlanRuntime:
        return PlanRuntime(table=self.table, indexes=self.indexes,
                           views=self.views,
                           buffer_manager=self.buffer_manager,
                           params=self.params, metered=metered)

    def execute_select(self, stmt: SelectStmt, stats: TableStats,
                       info: Optional[QueryInfo] = None) -> QueryResult:
        if info is None:
            info = analyze_select(stmt, self.table.schema)
        if info.unsatisfiable:
            # Contradictory conjunction: provably empty, no I/O needed
            # (real optimizers' "constant false" shortcut). A grouped
            # aggregate over nothing has no groups at all.
            rows = []
            if info.aggregates and info.group_by is None:
                rows = [aggregate_rows(info, [])]
            return QueryResult(rows=rows, metrics=MeteredCost())
        shortcut = self._try_minmax_via_index(info)
        if shortcut is not None:
            return shortcut
        path = self.plan_select(stmt, stats, info=info)
        metered = MeteredCost()
        rows = path.plan.run(self._runtime(metered))
        if info.limit is not None:
            rows = rows[:info.limit]
        metered.rows_returned = len(rows)
        return QueryResult(rows=rows, metrics=metered, access_path=path)

    def _try_minmax_via_index(self, info: QueryInfo
                              ) -> Optional[QueryResult]:
        """Answer an unpredicated single MIN/MAX from an index's first
        or last key — one descent instead of a scan."""
        if len(info.aggregates) != 1 or info.predicate_columns:
            return None
        aggregate = info.aggregates[0]
        if aggregate.func not in ("MIN", "MAX") or \
                aggregate.column is None:
            return None
        # Sorted candidates, then the shallowest: the answer's cost
        # must not depend on index-creation order.
        candidates = [self.indexes[d]
                      for d in sorted(self.indexes, key=structure_sort_key)
                      if d.columns[0] == aggregate.column]
        if not candidates:
            return None
        index = min(candidates, key=lambda ix: ix.geometry().height)
        cols, rids = index.leaf_arrays()
        if not len(rids):
            return None
        geometry = index.geometry()
        metered = MeteredCost()
        index.charge_descent()
        index.charge_leaf_pages(1)
        metered.add_reads(geometry.height + 1)
        metered.add_cpu(self.params.cpu_index_tuple_cost *
                        geometry.cpu_factor)
        data = cols[aggregate.column]
        value = data[0] if aggregate.func == "MIN" else data[-1]
        metered.rows_returned = 1
        return QueryResult(rows=[(scalar_value(value),)],
                           metrics=metered)

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------

    def execute_insert(self, stmt: InsertStmt) -> QueryResult:
        metered = MeteredCost()
        schema = self.table.schema
        surcharge = maintenance_surcharge(list(self.indexes) +
                                          list(self.views))
        nslots = self.table.nslots
        try:
            for row in stmt.rows:
                if len(row) != len(stmt.columns):
                    raise PlanningError("INSERT arity mismatch")
                values = dict(zip(stmt.columns, row))
                for column in schema.columns:
                    if column.name not in values:
                        raise PlanningError(
                            f"INSERT missing column {column.name!r}")
                rid = self.table.insert_row(values)
                metered.add_writes(1.0)
                for index in self.indexes.values():
                    index.on_insert(rid)
                    metered.add_reads(index.geometry().height)
                    metered.add_writes(1.0)
                metered.add_cpu((1 + len(self.indexes)) *
                                self.params.cpu_tuple_cost +
                                surcharge * self.params.cpu_tuple_cost)
                for view in self.views.values():
                    view.on_change()
                    metered.add_writes(1.0)
        except EngineError:
            # A statement that fails part-way (a faulted page write, a
            # bad later row) un-appends every row it inserted; the
            # indexes it marked stale re-sort from the restored heap.
            self.table.truncate(nslots)
            raise
        metered.rows_returned = len(stmt.rows)
        return QueryResult(rows=[], metrics=metered)

    def execute_update(self, stmt: UpdateStmt,
                       stats: TableStats) -> QueryResult:
        rids, metered = self._locate(stmt.where, stats)
        keyed = {c for d in self.indexes for c in d.columns}
        saved = {c: self.table.column_array(c)[rids]
                 for c, _ in stmt.assignments}
        self.table.update_rows(rids, dict(stmt.assignments))
        changed = {c: old != self.table.column_array(c)[rids]
                   for c, old in saved.items() if c in keyed}
        metered.add_writes(float(len(np.unique(
            rids // self.table.rows_per_page))) if len(rids) else 0.0)
        try:
            for definition, index in self.indexes.items():
                # Only rows whose key moved touch the index.
                moved = np.zeros(len(rids), dtype=bool)
                for column in definition.columns:
                    if column in changed:
                        moved |= changed[column]
                for rid in rids[moved]:
                    index.on_update(int(rid))
                if len(rids):
                    metered.add_writes(float(len(rids)))
            if len(rids):
                for view in self.views.values():
                    view.on_change()
                    metered.add_writes(1.0)
        except StorageError:
            # A faulted maintenance write undoes the heap change; the
            # indexes it marked stale re-sort from the restored heap.
            self.table.restore_rows(rids, saved)
            raise
        metered.rows_returned = len(rids)
        return QueryResult(rows=[], metrics=metered)

    def execute_delete(self, stmt: DeleteStmt,
                       stats: TableStats) -> QueryResult:
        rids, metered = self._locate(stmt.where, stats)
        for index in self.indexes.values():
            for rid in rids:
                index.on_delete(int(rid))
            if len(rids):
                metered.add_writes(float(len(rids)))
        if len(rids):
            for view in self.views.values():
                view.on_change()
                metered.add_writes(1.0)
        self.table.delete_rows(rids)
        metered.add_writes(float(len(np.unique(
            rids // self.table.rows_per_page))) if len(rids) else 0.0)
        metered.rows_returned = len(rids)
        return QueryResult(rows=[], metrics=metered)

    def _locate(self, where, stats: TableStats
                ) -> Tuple[np.ndarray, MeteredCost]:
        """Heap rids matching a WHERE clause, for UPDATE/DELETE row
        targeting. Runs the chosen plan's ``locate`` pipeline: access
        charges apply, but output-side work (heap fetch, sort) does
        not. Views are not consulted — DML is going to rewrite them
        anyway."""
        probe = SelectStmt(table=self.table.schema.name,
                           columns=tuple(self.table.schema.column_names),
                           where=where)
        info = analyze_select(probe, self.table.schema)
        if info.unsatisfiable:
            return np.empty(0, dtype=np.int64), MeteredCost()
        path = self.plan_select(probe, stats, info=info,
                                with_views=False)
        metered = MeteredCost()
        rids = path.plan.locate(self._runtime(metered))
        return np.asarray(rids, dtype=np.int64), metered
