"""The embedded database facade.

:class:`Database` owns the catalog (tables, indexes, materialized
views), the shared page-touch meter (:class:`BufferManager`),
statistics, and the what-if optimizer. It executes SQL text or
pre-parsed ASTs, and exposes the physical-design operations the
advisor layer needs: materializing and dropping structures, moving
between designs through one catalog-step executor
(:meth:`Database.transition`), and costing statements under
hypothetical designs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import (CatalogError, SqlUnsupportedError, StorageError,
                      TransientStorageError, TransitionError)
from ..faults.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from .buffer import BufferManager, IoMetrics
from .costmodel import CostParams, MeteredCost
from .executor import Executor, QueryResult
from .index import Index, IndexDef, structure_sort_key
from .schema import TableSchema
from .sql.ast import (CreateIndexStmt, CreateTableStmt, DeleteStmt,
                      DropIndexStmt, DropTableStmt, InsertStmt, SelectStmt,
                      Statement, UpdateStmt)
from .sql.parser import parse
from .stats import TableStats
from .storage import HeapTable
from .types import ColumnType, parse_column_type
from .views import MaterializedView, ViewDef
from .whatif import PlanEstimate, WhatIfOptimizer


#: The two catalog actions a transition step can take.
CREATE = "create"
DROP = "drop"


@dataclass
class TransitionReport:
    """What one run of :meth:`Database.transition` did.

    ``executed`` and ``skipped`` hold ``(action, definition)`` steps;
    ``skipped`` lists those whose effect was already in the catalog,
    non-empty exactly when the run resumed an interrupted transition.
    ``completed`` is False only on the partial report a
    :class:`~repro.errors.TransitionError` carries.
    """

    executed: List[Tuple[str, object]]
    skipped: List[Tuple[str, object]]
    metered: MeteredCost
    completed: bool

    def units(self, params: CostParams) -> float:
        return self.metered.total(params)


def transition_steps(current: Iterable, target: Iterable
                     ) -> Tuple[Tuple[str, object], ...]:
    """The catalog order of ``current -> target``: the drops, then the
    creates, each in :func:`structure_sort_key` order."""
    current, target = frozenset(current), frozenset(target)
    return tuple(
        [(DROP, d) for d in sorted(current - target,
                                   key=structure_sort_key)] +
        [(CREATE, d) for d in sorted(target - current,
                                     key=structure_sort_key)])


@dataclass
class GroundTruthExecution:
    """One statement actually executed, with its I/O ground truth.

    The verification harness compares what-if *estimates* against
    these: the deterministic metered cost units and the buffer
    manager's raw :class:`IoMetrics` delta for the statement.

    Attributes:
        result: rows plus metered cost (``result.access_path`` names
            the access path the executor actually took).
        io: buffer-manager counter movement (logical reads,
            physical writes) attributable to this statement.
    """

    result: QueryResult
    io: IoMetrics

    def units(self, params: CostParams) -> float:
        return self.result.units(params)

    @property
    def access_kind(self) -> str:
        path = self.result.access_path
        return path.kind if path is not None else "other"


class Database:
    """An embedded single-node database instance.

    Args:
        params: cost-model weights shared by planner, executor and
            what-if optimizer.
        fault_injector: optional
            :class:`~repro.faults.injector.FaultInjector`; None
            (default) keeps the fault machinery entirely out of the
            hot paths.
        retry_policy: how transient faults are retried (shared by the
            buffer manager and the transition machinery).
    """

    def __init__(self, params: Optional[CostParams] = None,
                 fault_injector=None,
                 retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY):
        self.params = params or CostParams()
        self.retry_policy = retry_policy
        self.buffer_manager = BufferManager(
            fault_injector=fault_injector,
            retry_policy=retry_policy)
        self.tables: Dict[str, HeapTable] = {}
        self.indexes_by_name: Dict[str, Index] = {}
        self.views_by_name: Dict[str, MaterializedView] = {}
        self._stats_cache: Dict[str, TableStats] = {}

    def set_fault_injector(self, injector) -> None:
        """Attach (or with None, detach) a fault injector. All engine
        fault sites read it through the shared buffer manager."""
        self.buffer_manager.fault_injector = injector

    # ------------------------------------------------------------------
    # DDL / loading
    # ------------------------------------------------------------------

    def create_table(self, name: str,
                     columns: Sequence[Tuple[str, Union[str, ColumnType]]]
                     ) -> HeapTable:
        """Create a table from ``(name, type)`` pairs."""
        if name in self.tables:
            raise CatalogError(f"table {name!r} already exists")
        typed = [(c, t if isinstance(t, ColumnType)
                  else parse_column_type(t)) for c, t in columns]
        schema = TableSchema.build(name, typed)
        table = HeapTable(schema, self.buffer_manager)
        self.tables[name] = table
        self._stats_cache.pop(name, None)
        return table

    def drop_table(self, name: str) -> None:
        """Drop a table and every dependent structure.

        Dependent indexes and views are dropped first, then the heap
        itself — so no structure can outlive its base table and
        :meth:`current_configuration` never reports a dangling
        definition. Compressed variants are ordinary catalog entries
        and need no special casing here.
        """
        self.table(name)  # raises CatalogError for an unknown table
        for index in list(self.indexes_for(name)):
            self.drop_index(index.name)
        for view in list(self.views_for(name)):
            self.drop_view(view.name)
        del self.tables[name]
        self._stats_cache.pop(name, None)

    def bulk_load(self, table_name: str,
                  columns: Dict[str, Sequence]) -> int:
        """Bulk-append column data; refreshes stats lazily."""
        table = self.table(table_name)
        loaded = table.bulk_load(columns)
        self._stats_cache.pop(table_name, None)
        failed: List[str] = []
        for index in list(self.indexes_for(table_name)):
            # Rebuild rather than insert row-by-row: bulk loads after
            # index creation are rare and rebuild matches real engines'
            # fast-load paths.
            try:
                self._transition(index.definition.label, index._build)
            except TransitionError:
                # A stale index would silently return wrong rows;
                # dropping it keeps the catalog consistent (the
                # structure can be re-created once the fault clears).
                self.drop_index(index.name)
                failed.append(index.definition.label)
        for view in list(self.views_for(table_name)):
            try:
                self._transition(view.definition.label, view._build)
            except TransitionError:
                self.drop_view(view.name)
                failed.append(view.definition.label)
        if failed:
            raise TransitionError(
                f"bulk load of {table_name!r} succeeded but rebuilding "
                f"{', '.join(failed)} failed; the structures were "
                f"dropped", structure=",".join(failed))
        return loaded

    def _transition(self, label: str, build):
        """Run a structure build atomically, with or without a fault
        injector attached.

        The buffer manager (object-id cursor, data-plane metrics) is
        checkpointed first; a mid-build
        :class:`StorageError` rolls everything back to exactly the
        checkpoint, transient failures are retried under the retry
        policy (backoff charged as latency units), and exhausted or
        permanent failures surface as :class:`TransitionError` —
        always from the pre-build state.
        """
        checkpoint = self.buffer_manager.save_state()
        attempt = 1
        while True:
            try:
                return build()
            except StorageError as exc:
                self.buffer_manager.restore_state(checkpoint)
                self.buffer_manager.metrics.rollbacks += 1
                retryable = isinstance(exc, TransientStorageError)
                if not retryable or \
                        attempt >= self.retry_policy.max_attempts:
                    raise TransitionError(
                        f"building {label} failed after {attempt} "
                        f"attempt(s): {exc}", structure=label,
                        attempts=attempt) from exc
                self.buffer_manager.metrics.retries += 1
                self.buffer_manager.metrics.latency_units += \
                    self.retry_policy.backoff_for(attempt)
                attempt += 1

    def create_index(self, definition: IndexDef,
                     name: Optional[str] = None) -> Index:
        """Materialize an index (charges its build I/O).

        Atomic under faults: a build that cannot complete raises
        :class:`TransitionError` with catalog and buffer state exactly
        as before the call.
        """
        table = self.table(definition.table)
        if self.find_index(definition) is not None:
            raise CatalogError(
                f"index {definition.label} already exists")
        catalog_name = name or definition.default_name()
        if catalog_name in self.indexes_by_name:
            raise CatalogError(f"index name {catalog_name!r} in use")
        index = self._transition(
            definition.label,
            lambda: Index(definition, table, self.buffer_manager,
                          name))
        self.indexes_by_name[index.name] = index
        return index

    def drop_index(self, name: str) -> None:
        if self.indexes_by_name.pop(name, None) is None:
            raise CatalogError(f"unknown index {name!r}")

    def create_view(self, definition: ViewDef,
                    name: Optional[str] = None) -> MaterializedView:
        """Materialize a projection view (charges its build I/O).

        Atomic under faults, like :meth:`create_index`.
        """
        table = self.table(definition.table)
        if self.find_view(definition) is not None:
            raise CatalogError(
                f"view {definition.label} already exists")
        catalog_name = name or definition.default_name()
        if catalog_name in self.views_by_name:
            raise CatalogError(f"view name {catalog_name!r} in use")
        view = self._transition(
            definition.label,
            lambda: MaterializedView(definition, table,
                                     self.buffer_manager, name))
        self.views_by_name[view.name] = view
        return view

    def drop_view(self, name: str) -> None:
        if self.views_by_name.pop(name, None) is None:
            raise CatalogError(f"unknown view {name!r}")

    # ------------------------------------------------------------------
    # catalog accessors
    # ------------------------------------------------------------------

    def table(self, name: str) -> HeapTable:
        try:
            return self.tables[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def indexes_for(self, table_name: str) -> List[Index]:
        return [ix for ix in self.indexes_by_name.values()
                if ix.definition.table == table_name]

    def find_index(self, definition: IndexDef) -> Optional[Index]:
        for index in self.indexes_by_name.values():
            if index.definition == definition:
                return index
        return None

    def views_for(self, table_name: str) -> List[MaterializedView]:
        return [v for v in self.views_by_name.values()
                if v.definition.table == table_name]

    def find_view(self, definition: ViewDef
                  ) -> Optional[MaterializedView]:
        for view in self.views_by_name.values():
            if view.definition == definition:
                return view
        return None

    def current_configuration(self) -> frozenset:
        """The set of materialized structures (indexes and views)."""
        return frozenset(
            [ix.definition for ix in self.indexes_by_name.values()] +
            [v.definition for v in self.views_by_name.values()])

    def stats(self, table_name: str) -> TableStats:
        cached = self._stats_cache.get(table_name)
        if cached is None or cached.nrows != self.table(table_name).nrows:
            cached = TableStats.from_table(self.table(table_name))
            self._stats_cache[table_name] = cached
        return cached

    def refresh_stats(self) -> None:
        self._stats_cache.clear()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def execute(self, statement: Union[str, Statement]) -> QueryResult:
        """Execute SQL text or a parsed statement."""
        stmt = parse(statement) if isinstance(statement, str) \
            else statement
        if isinstance(stmt, CreateTableStmt):
            self.create_table(stmt.table, list(stmt.columns))
            return QueryResult(rows=[], metrics=MeteredCost())
        if isinstance(stmt, CreateIndexStmt):
            definition = IndexDef(stmt.table, stmt.columns)
            before = self.buffer_manager.snapshot()
            self.create_index(definition, stmt.name)
            delta = self.buffer_manager.snapshot() - before
            metered = MeteredCost(page_reads=delta.logical_reads,
                                  page_writes=delta.physical_writes)
            return QueryResult(rows=[], metrics=metered)
        if isinstance(stmt, DropIndexStmt):
            self.drop_index(stmt.name)
            # Flat catalog-update charge, directly in cost units
            # (matching cost_drop_index — not a page-write count).
            return QueryResult(rows=[], metrics=MeteredCost(
                cpu_units=self.params.drop_index_cost))
        if isinstance(stmt, DropTableStmt):
            self.drop_table(stmt.table)
            return QueryResult(rows=[], metrics=MeteredCost())
        if isinstance(stmt, SelectStmt):
            executor = self._executor_for(stmt.table)
            return executor.execute_select(stmt, self.stats(stmt.table))
        if isinstance(stmt, InsertStmt):
            executor = self._executor_for(stmt.table)
            result = executor.execute_insert(stmt)
            self._stats_cache.pop(stmt.table, None)
            return result
        if isinstance(stmt, UpdateStmt):
            executor = self._executor_for(stmt.table)
            result = executor.execute_update(stmt, self.stats(stmt.table))
            self._stats_cache.pop(stmt.table, None)
            return result
        if isinstance(stmt, DeleteStmt):
            executor = self._executor_for(stmt.table)
            result = executor.execute_delete(stmt, self.stats(stmt.table))
            self._stats_cache.pop(stmt.table, None)
            return result
        raise SqlUnsupportedError(
            f"cannot execute {type(stmt).__name__}")

    def execute_metered(self, statement: Union[str, Statement]
                        ) -> GroundTruthExecution:
        """Execute a statement and capture its I/O ground truth.

        Ground-truth replay hook for the verification harness
        (:mod:`repro.verify`): runs the statement through the normal
        executor while snapshotting the buffer manager around it, so the
        caller gets both the deterministic metered cost and the raw
        buffer-level :class:`IoMetrics` delta to hold the cost model's
        estimates against.
        """
        before = self.buffer_manager.snapshot()
        result = self.execute(statement)
        return GroundTruthExecution(
            result=result,
            io=self.buffer_manager.snapshot() - before)

    def query(self, sql: str) -> List[Tuple]:
        """Convenience: execute a SELECT and return just the rows."""
        return self.execute(sql).rows

    def plan(self, statement: Union[str, Statement]):
        """The access path (with its physical-plan tree) the executor
        would run for a SELECT under the *current* catalog, without
        executing it."""
        stmt = parse(statement) if isinstance(statement, str) \
            else statement
        if not isinstance(stmt, SelectStmt):
            raise SqlUnsupportedError(
                "plans exist only for SELECT statements")
        executor = self._executor_for(stmt.table)
        return executor.plan_select(stmt, self.stats(stmt.table))

    def explain(self, statement: Union[str, Statement],
                config: Optional[Iterable[IndexDef]] = None) -> str:
        """Render the costed plan tree for a SELECT.

        With ``config`` the statement is planned against that
        *hypothetical* configuration (what-if catalog substitution);
        otherwise against the materialized catalog. Either way the tree
        shown is the literal plan object the executor would interpret.
        """
        stmt = parse(statement) if isinstance(statement, str) \
            else statement
        if not isinstance(stmt, SelectStmt):
            raise SqlUnsupportedError(
                "EXPLAIN supports only SELECT statements")
        if config is None:
            path = self.plan(stmt)
        else:
            path = self.what_if().estimate_statement(
                stmt, config).access_path
        stats = self.stats(stmt.table)
        header = path.describe(self.params)
        return header + "\n" + path.plan.explain(stats, self.params)

    def _executor_for(self, table_name: str) -> Executor:
        table = self.table(table_name)
        indexes = {ix.definition: ix
                   for ix in self.indexes_for(table_name)}
        views = {v.definition: v for v in self.views_for(table_name)}
        return Executor(table, indexes, self.buffer_manager,
                        self.params, views=views)

    # ------------------------------------------------------------------
    # physical design operations
    # ------------------------------------------------------------------

    def what_if(self) -> WhatIfOptimizer:
        """A what-if optimizer snapshotting current schemas and stats.

        Inherits the database's fault injector (if any), so estimate
        faults fire for what-if consumers too.
        """
        schemas = {name: t.schema for name, t in self.tables.items()}
        stats = {name: self.stats(name) for name in self.tables}
        return WhatIfOptimizer(
            schemas, stats, self.params,
            fault_injector=self.buffer_manager.fault_injector)

    def estimate(self, statement: Union[str, Statement],
                 config: Iterable[IndexDef]) -> PlanEstimate:
        """One-off what-if estimate (prefer reusing :meth:`what_if`)."""
        stmt = parse(statement) if isinstance(statement, str) \
            else statement
        return self.what_if().estimate_statement(stmt, config)

    def apply_configuration(self, config: Iterable) -> TransitionReport:
        """Create/drop structures until the materialized design equals
        ``config``, in the catalog order of :func:`transition_steps`."""
        return self.transition(
            transition_steps(self.current_configuration(), config))

    def transition(self, steps: Iterable[Tuple[str, object]]
                   ) -> TransitionReport:
        """Run ``(action, definition)`` catalog steps in order: the one
        executor every design change goes through.

        A step whose effect is already in the catalog is skipped (so a
        re-run resumes), and with an injector attached the
        ``deploy_step`` site fires before every step about to run. The
        charge is the run's logical reads and physical writes, plus
        ``drop_index_cost`` per drop, plus any latency. A
        :class:`TransitionError` (a failed build or an injected fault)
        leaves every earlier step standing and the failing one without
        trace, and carries the partial report as ``report``.
        """
        before = self.buffer_manager.snapshot()
        executed: List[Tuple[str, object]] = []
        skipped: List[Tuple[str, object]] = []
        drop_units = 0.0

        def report(completed: bool) -> TransitionReport:
            delta = self.buffer_manager.snapshot() - before
            # Retry backoff / slow-I/O latency charges land on
            # cpu_units: they are already expressed in cost units (zero
            # when faults are off, so the fault-free metering is
            # unchanged).
            return TransitionReport(
                executed=list(executed), skipped=list(skipped),
                metered=MeteredCost(
                    page_reads=float(delta.logical_reads),
                    page_writes=float(delta.physical_writes),
                    cpu_units=drop_units + delta.latency_units),
                completed=completed)

        try:
            for step in steps:
                action, definition = step
                is_view = isinstance(definition, ViewDef)
                live = (self.find_view(definition) if is_view
                        else self.find_index(definition))
                if (live is not None) == (action == CREATE):
                    # Already in effect: a resumed run passes over it.
                    skipped.append(step)
                    continue
                injector = self.buffer_manager.fault_injector
                if injector is not None:
                    label = f"{action} {definition.label}"
                    try:
                        injector.on_deploy_step(
                            label, self.buffer_manager.metrics)
                    except StorageError as exc:
                        raise TransitionError(
                            f"transition halted before step {label!r}: "
                            f"{exc}", structure=definition.label) from exc
                if action == CREATE:
                    if is_view:
                        self.create_view(definition)
                    else:
                        self.create_index(definition)
                else:
                    if is_view:
                        self.drop_view(live.name)
                    else:
                        self.drop_index(live.name)
                    # Flat catalog-update charge in cost units, matching
                    # cost_drop_index (charging it as page writes would
                    # scale it by io_write_cost).
                    drop_units += self.params.drop_index_cost
                executed.append(step)
        except TransitionError as exc:
            exc.report = report(completed=False)
            raise
        return report(completed=True)
