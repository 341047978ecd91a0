"""What-if optimization: costing statements under hypothetical designs.

This is the engine's equivalent of SQL Server's hypothetical indexes /
PostgreSQL's HypoPG: an index that exists only as statistics-derived
geometry. A hypothetical structure is pure *catalog substitution*: the
planner is handed ``(IndexDef, IndexGeometry)`` pairs and realizes the
same :mod:`~repro.sqlengine.plan` operator trees it would for deployed
structures, costed by the trees' own estimates. The what-if estimate
for a configuration is therefore the cost of the *literal plan object*
the executor would run if the configuration were deployed — the
``planidentity`` verify check asserts the two trees compare equal.

The :class:`WhatIfOptimizer` provides the three quantities the paper's
problem definition needs:

* ``EXEC(S, C)`` — :meth:`estimate_statement`,
* ``TRANS(C1, C2)`` — :meth:`transition_cost`,
* ``SIZE(C)`` — :meth:`configuration_size_bytes`.

Batched consumers (the :class:`~repro.core.costservice.CostService`)
additionally use the *template* entry points — statements are reduced
to a canonical :class:`StatementTemplate` whose key folds predicate
constants into the selectivities they induce; two statements with equal
template keys receive identical what-if estimates, so each template is
estimated once per configuration instead of once per statement. Three
facts are kept per structure, not per cell: its build cost (a table
per statistics epoch, keyed by the set a transition adds, so a TRANS
cell is one lookup plus its drop charges), whether it can serve a
template (a row of relevance signatures per template, from one
derivation) and the access paths it contributes to a query (a table
per analysed query, per statistics epoch, that every configuration's
plan choice reads). A statement that carries its text gets its key
straight from ``(shape, literal texts)`` — no AST — wherever the shape
has a *key plan* (:meth:`WhatIfOptimizer.statement_template`, DESIGN
§6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, FrozenSet, Iterable, List, Mapping,
                    Optional, Tuple, get_args)

from ..errors import CatalogError, SqlSyntaxError, SqlUnsupportedError
from .costmodel import (Cost, CostParams, cost_build_index,
                        cost_build_view, cost_drop_index,
                        cost_full_scan, cost_insert, cost_sort,
                        maintenance_surcharge)
from .index import IndexDef, IndexGeometry, structure_sort_key
from .plan import PlanNode
from .views import ViewDef, ViewGeometry
from .planner import (AccessPath, QueryInfo, analyze_select,
                      choose_access_path, comparison_range, separable,
                      structure_paths)
from .schema import TableSchema
from .sql.ast import (DeleteStmt, InsertStmt, SelectStmt, Statement,
                      UpdateStmt)
from .sql.lexer import literal_value, split_literals
from .sql.parser import binds_shape
from .stats import TableStats


@dataclass(frozen=True)
class PlanEstimate:
    """Outcome of a what-if costing call.

    ``plan`` is the physical-plan tree the estimate was read off —
    structurally equal to the tree the executor would run under the
    same configuration (``None`` for statements costed without a plan,
    e.g. INSERT).
    """

    cost: Cost
    access_path: Optional[AccessPath]
    units: float
    plan: Optional[PlanNode] = None

    def __float__(self) -> float:
        return self.units


@dataclass(frozen=True)
class StatementTemplate:
    """Canonical cost shape of a statement.

    Two statements share a template exactly when the cost model cannot
    tell them apart: same statement kind, table, selected columns,
    aggregates/ordering/grouping, and — the folding step — the same
    per-column predicate *selectivities*. Constants themselves are
    discarded; only the selectivity each predicate induces under the
    current statistics is kept, exactly, so estimating the
    representative statement yields the bit-identical result every
    member of the template would get.

    Attributes:
        key: hashable signature (the dedup/cache key).
        representative: parsed AST of one member statement, used to
            actually run the estimate.
    """

    key: Tuple
    representative: Statement = field(compare=False, repr=False)


#: The AST statement classes (``Statement`` is their ``Union``).
_AST_NODES = get_args(Statement)

#: ``plan(literal texts, table -> statistics lookup)``: the template
#: key of the statement of the plan's shape that holds those literals,
#: or ``None`` when only its AST can tell.
_KeyPlan = Callable[[List[str], Callable[[str], TableStats]],
                    Optional[Tuple]]


#: Comparison operator -> the kind of key part it contributes (every
#: other operator is one side of a range).
_PART_KINDS = {"=": "eq", "!=": "neq"}


def _compile_key_plan(template: StatementTemplate) -> Optional[_KeyPlan]:
    """The key plan for the shape of ``template.representative``,
    given that :func:`~.sql.parser.parse` binds that shape
    (:func:`~.sql.parser.binds_shape`) — literal *i* of a member's
    text is then slot *i* of its AST — and that ``template`` came off
    the AST path.

    An INSERT's key is the same for the whole shape. A SELECT's,
    UPDATE's or DELETE's is a function of its literals the plan can
    compute when its WHERE is :func:`~.planner.separable`: the
    analysis is then never ``unsatisfiable`` and every column, in
    sorted order, contributes the one part its own comparison spells;
    everything else in the key is the first member's. A member that
    compares a string where the first member compares a number, or the
    other way round, gets no key from the plan: only the analysis knows
    whether its literal fits the column. Any other shape has no plan
    (``None``).
    """
    stmt, key = template.representative, template.key
    if isinstance(stmt, InsertStmt):
        return lambda literals, stats_for: key
    if not separable(stmt.where):
        return None
    kind, signature = key
    table, head = stmt.table, signature[:-3]
    first = len(stmt.assignments) if isinstance(stmt, UpdateStmt) else 0
    predicates = () if stmt.where is None else stmt.where.predicates
    slots = sorted((p.column, _PART_KINDS.get(p.op, "range"), p.op,
                    first + i, isinstance(p.value, str))
                   for i, p in enumerate(predicates))
    n_literals = first + len(predicates)
    limit_slot = None
    if signature[-3] is not None:
        limit_slot = n_literals
        n_literals += 1

    def plan(literals, stats_for):
        if len(literals) != n_literals:
            return None
        try:
            values = [literal_value(source) for source in literals]
        except SqlSyntaxError:
            return None
        limit = None
        if limit_slot is not None:
            limit = values[limit_slot]
            if not isinstance(limit, int) or limit < 0:
                return None
        column_stats = stats_for(table).column
        parts = []
        for column, part, op, slot, text in slots:
            if isinstance(values[slot], str) != text:
                return None
            if part == "range":
                spec = comparison_range(op, values[slot])
                selectivity = column_stats(column).selectivity_range(
                    spec.lo, spec.hi, spec.lo_inclusive,
                    spec.hi_inclusive)
            else:
                selectivity = column_stats(column).selectivity_eq(
                    values[slot])
            parts.append((column, ((part, selectivity),)))
        return (kind, head + (limit, False, tuple(parts)))
    return plan


class WhatIfOptimizer:
    """Costs statements under arbitrary (hypothetical) configurations.

    Args:
        schemas: table name -> schema.
        stats: table name -> current statistics.
        params: cost-model weights.
    """

    def __init__(self, schemas: Mapping[str, TableSchema],
                 stats: Mapping[str, TableStats],
                 params: Optional[CostParams] = None,
                 fault_injector=None):
        self._schemas = dict(schemas)
        self._stats = dict(stats)
        self.params = params or CostParams()
        #: Optional :class:`~repro.faults.injector.FaultInjector`;
        #: when set, every estimate entry is an ``estimate`` fault
        #: site (raising :class:`EstimationUnavailable`).
        self.fault_injector = fault_injector
        self._geometry_cache: Dict[Tuple[IndexDef, int], IndexGeometry] = {}
        #: set of structures a transition adds -> its summed build
        #: cost (:meth:`_fill_build_row`), per statistics epoch
        self._build_table: Dict[FrozenSet, Tuple] = {}
        self._drop_charge = cost_drop_index(self.params).cpu_units
        #: analysed SELECT (an UPDATE's or DELETE's probe too) -> its
        #: ``QueryInfo`` and its access-path table (``path_table`` of
        #: :func:`~.planner.enumerate_access_paths`). The info outlives
        #: a statistics epoch; the table is emptied with it.
        self._planning: Dict[SelectStmt, Tuple[QueryInfo, Dict]] = {}
        #: statement shape -> how to read a template key off the
        #: shape's literal texts (``None``: only the AST can tell);
        #: see :meth:`statement_template`.
        self._key_plans: Dict[Tuple[str, ...], Optional[_KeyPlan]] = {}
        #: template key -> the first template derived for it under the
        #: current statistics.
        self._templates: Dict[Tuple, StatementTemplate] = {}
        #: Bumped whenever statistics change; template keys computed
        #: under an older epoch are stale (selectivities moved).
        self.stats_epoch = 0

    # ------------------------------------------------------------------
    # EXEC
    # ------------------------------------------------------------------

    def estimate_statement(self, stmt: Statement,
                           config: Iterable[IndexDef]) -> PlanEstimate:
        """Estimate the execution cost of ``stmt`` under ``config``.

        Raises :class:`~repro.errors.EstimationUnavailable` when a
        fault injector is attached and fires at the ``estimate`` site
        (modelling what-if timeouts); callers degrade via
        :meth:`scan_upper_bound`.
        """
        if self.fault_injector is not None:
            self.fault_injector.on_estimate(
                getattr(stmt, "table", None))
        config = frozenset(config)
        if isinstance(stmt, SelectStmt):
            return self._estimate_select(stmt, config)
        if isinstance(stmt, InsertStmt):
            return self._estimate_insert(stmt, config)
        if isinstance(stmt, (UpdateStmt, DeleteStmt)):
            return self._estimate_write_with_where(stmt, config)
        raise SqlUnsupportedError(
            f"what-if costing does not support {type(stmt).__name__}")

    # ------------------------------------------------------------------
    # templates (the batched-estimation entry point)
    # ------------------------------------------------------------------

    def statement_template(self, stmt) -> StatementTemplate:
        """Reduce ``stmt`` to its :class:`StatementTemplate`.

        ``stmt`` is an AST node, or a statement that carries its text
        (``.sql``, with a lazily parsed ``.ast`` — the workload
        ``Statement``). From an AST the template is derived in full
        and holds that AST. From text the key is read off the literal
        texts by the shape's key plan and the first template derived
        for that key is returned — no AST, no analysis; a shape
        without a plan, a literal the plan will not vouch for or a key
        not seen under the current statistics goes through ``.ast``
        and the AST path, which raises what it always raised.
        """
        if isinstance(stmt, _AST_NODES):
            return self._ast_template(stmt)
        shape, literals = split_literals(stmt.sql)
        plan = self._key_plans.get(shape)
        if plan is not None:
            template = self._templates.get(
                plan(literals, self._stats_for))
            if template is not None:
                return template
        template = self._ast_template(stmt.ast)
        if shape not in self._key_plans and binds_shape(shape):
            plan = _compile_key_plan(template)
            if plan is not None and \
                    plan(literals, self._stats_for) != template.key:
                plan = None
            self._key_plans[shape] = plan
        return self._templates.setdefault(template.key, template)

    def _ast_template(self, stmt: Statement) -> StatementTemplate:
        if isinstance(stmt, SelectStmt):
            key = ("select", self._select_signature(stmt))
            return StatementTemplate(key=key, representative=stmt)
        if isinstance(stmt, InsertStmt):
            # Row *values* never enter the insert cost model — only the
            # target table and the row count do.
            key = ("insert", stmt.table, len(stmt.rows))
            return StatementTemplate(key=key, representative=stmt)
        if isinstance(stmt, (UpdateStmt, DeleteStmt)):
            # Writes cost like a SELECT * probe plus a per-affected-row
            # write term; SET values are irrelevant, the WHERE shape is
            # everything.
            key = (type(stmt).__name__.lower(),
                   self._select_signature(self._probe(stmt)))
            return StatementTemplate(key=key, representative=stmt)
        raise SqlUnsupportedError(
            f"what-if costing does not support {type(stmt).__name__}")

    def estimate_template(self, template: StatementTemplate,
                          config: Iterable[IndexDef]) -> PlanEstimate:
        """Estimate one template's cost under ``config`` (by costing
        its representative statement)."""
        return self.estimate_statement(template.representative, config)

    # ------------------------------------------------------------------
    # relevance signatures (atomic cost decomposition)
    # ------------------------------------------------------------------

    def relevance_signature(self, template: StatementTemplate,
                            config: Iterable[IndexDef]) -> Tuple:
        """The part of ``config`` that can possibly affect the
        template's estimate, as a hashable signature.

        Contract: two configurations with equal signatures yield
        **bit-identical** :meth:`estimate_template` results, because
        the estimate reads only what the signature captures:

        * SELECT — the sorted subset of structures that can serve the
          statement: those whose entry in the access-path table is
          non-empty (:func:`~repro.sqlengine.planner.structure_paths`,
          filled on a miss). A non-serving structure contributes no
          access path, so the planner's cheapest-path choice is a pure
          function of this subset (plus statistics). Compression is
          part of each structure's identity, so variants are distinct
          signature members automatically.
        * INSERT — the maintenance cost is a function of the on-table
          structures' count *and compression levels* (decode/encode
          surcharge), so the signature is the sorted multiset of
          levels; its length recovers the historical count.
        * UPDATE/DELETE — the serving subset of the SELECT-* probe
          (row location) plus the on-table level multiset (write
          maintenance).

        Signature-keyed caches therefore collapse the what-if work
        from O(templates x |C|) to O(templates x relevant subsets)
        without changing a single estimate.
        """
        stmt = template.representative
        structures = frozenset(config)
        if isinstance(stmt, SelectStmt):
            return ("select", self._serving(stmt, structures))
        if isinstance(stmt, InsertStmt):
            return ("insert", stmt.table,
                    _maintenance_levels(structures, stmt.table))
        if isinstance(stmt, (UpdateStmt, DeleteStmt)):
            return ("write", self._serving(self._probe(stmt), structures),
                    _maintenance_levels(structures, stmt.table))
        raise SqlUnsupportedError(
            f"what-if costing does not support {type(stmt).__name__}")

    def relevance_signatures(self, template: StatementTemplate,
                             configs: Iterable[Iterable[IndexDef]]
                             ) -> List[Tuple]:
        """``[relevance_signature(template, c) for c in configs]``
        from **one** such call, on the union of the configurations:
        a structure serves or not whatever else is there, so each
        serving subset is the configuration's part of the union's, in
        the union's order; DML maintenance levels are its own. A plan
        over several structures would void this (DESIGN §9)."""
        configs = [frozenset(config) for config in configs]
        signature = self.relevance_signature(
            template, frozenset().union(*configs))
        kind, table = signature[0], template.representative.table
        if kind == "insert":
            return [(kind, table, _maintenance_levels(config, table))
                    for config in configs]
        serving, served = signature[1], frozenset(signature[1])
        ordered: Dict[FrozenSet, Tuple] = {}
        subsets = []
        for config in configs:
            hit = config & served
            if hit not in ordered:
                ordered[hit] = tuple(d for d in serving if d in hit)
            subsets.append(ordered[hit])
        if kind == "select":
            return [(kind, subset) for subset in subsets]
        return [(kind, subset, _maintenance_levels(config, table))
                for subset, config in zip(subsets, configs)]

    def _select_signature(self, stmt: SelectStmt) -> Tuple:
        """The selectivity-folded signature of a SELECT.

        Every quantity the planner derives from the statement is a
        function of this tuple (plus table statistics): output columns,
        aggregate/order/group shape, and — per predicate column — the
        constraint kinds with their selectivities, in the exact order
        ``predicate_selectivity`` multiplies them.
        """
        info = self._planned(stmt)[0]
        stats = self._stats_for(stmt.table)

        columns = sorted(set(info.eq_predicates)
                         | set(info.range_predicates)
                         | {p.column for p in info.neq_predicates})
        predicate_parts = []
        for column in columns:
            parts: List[Tuple[str, float]] = []
            column_stats = stats.column(column)
            if column in info.eq_predicates:
                parts.append(("eq", column_stats.selectivity_eq(
                    info.eq_predicates[column])))
            if column in info.range_predicates:
                spec = info.range_predicates[column]
                parts.append(("range", column_stats.selectivity_range(
                    spec.lo, spec.hi, spec.lo_inclusive,
                    spec.hi_inclusive)))
            for predicate in info.neq_predicates:
                if predicate.column == column:
                    parts.append(("neq", column_stats.selectivity_eq(
                        predicate.value)))
            predicate_parts.append((column, tuple(parts)))
        order = None
        if info.order_by is not None:
            order = (info.order_by.column, info.order_by.descending)
        # _compile_key_plan relies on this layout: everything that
        # holds no literal first, then (limit, unsatisfiable, parts).
        return (stmt.table, info.select_columns, info.aggregates,
                info.group_by, order, info.limit, info.unsatisfiable,
                tuple(predicate_parts))

    def _estimate_select(self, stmt: SelectStmt,
                         config: FrozenSet[IndexDef]) -> PlanEstimate:
        path = self._choose(stmt, config)
        return PlanEstimate(cost=path.cost, access_path=path,
                            units=path.cost.total(self.params),
                            plan=path.plan)

    def _estimate_insert(self, stmt: InsertStmt,
                         config: FrozenSet[IndexDef]) -> PlanEstimate:
        cost = self._insert_cost(stmt, config)
        return PlanEstimate(cost=cost, access_path=None,
                            units=cost.total(self.params))

    def _estimate_write_with_where(self, stmt, config) -> PlanEstimate:
        """UPDATE/DELETE: locate rows like a SELECT *, then write the
        ones it finds (every path's ``est_rows`` is that estimate)."""
        path = self._choose(self._probe(stmt), config)
        cost = path.cost + self._write_cost(stmt.table, config,
                                            path.est_rows)
        return PlanEstimate(cost=cost, access_path=path,
                            units=cost.total(self.params),
                            plan=path.plan)

    def _choose(self, stmt: SelectStmt,
                config: FrozenSet[IndexDef]) -> AccessPath:
        """The cheapest access path for ``stmt`` under ``config``."""
        info, path_table = self._planned(stmt)
        indexes, views = self._geometries(stmt.table, config)
        return choose_access_path(info, self._stats_for(stmt.table),
                                  indexes, self.params, views,
                                  path_table)

    def _insert_cost(self, stmt: InsertStmt, structures) -> Cost:
        """:func:`~.costmodel.cost_insert` once per inserted row."""
        on_table = [d for d in structures if d.table == stmt.table]
        one = cost_insert(self._stats_for(stmt.table), len(on_table),
                          self.params, maintenance_surcharge(on_table))
        rows = len(stmt.rows)
        return Cost(one.page_reads * rows, one.page_writes * rows,
                    one.cpu_units * rows)

    def _write_cost(self, table: str, structures,
                    affected: float) -> Cost:
        """UPDATE/DELETE write term: ``affected`` rows written and every
        structure on ``table`` maintained. The compression surcharge
        rides as an additive term (exactly 0.0 for an all-NONE design)
        so the uncompressed term is bitwise the pre-compression one."""
        on_table = [d for d in structures if d.table == table]
        n_indexes = len(on_table)
        cpu = self.params.cpu_tuple_cost
        return Cost(page_writes=affected * (1.0 + n_indexes),
                    cpu_units=affected * cpu * (1 + n_indexes) +
                    affected * cpu * maintenance_surcharge(on_table))

    # ------------------------------------------------------------------
    # degraded estimation
    # ------------------------------------------------------------------

    def scan_upper_bound(self, stmt: Statement,
                         config: Iterable[IndexDef] = ()) -> float:
        """A pessimistic cost bound computed from statistics alone.

        The last rung of the degradation ladder: when real estimation
        is unavailable, charge the statement as if no index helped —
        a full heap scan (plus a full sort for ordered/grouped
        queries, plus worst-case write maintenance for DML). Never
        consults the fault injector and never underestimates the
        planner's choice, so degraded consumers err toward caution.
        """
        stats = self._stats_for(
            getattr(stmt, "table", None) or "")
        if isinstance(stmt, SelectStmt):
            cost = cost_full_scan(stats, self.params)
            if stmt.order_by is not None or stmt.group_by is not None:
                cost = cost + cost_sort(stats.nrows, self.params)
            return cost.total(self.params)
        structures = frozenset(config)
        if isinstance(stmt, InsertStmt):
            return self._insert_cost(stmt, structures).total(self.params)
        if isinstance(stmt, (UpdateStmt, DeleteStmt)):
            # Worst case: every row qualifies.
            cost = cost_full_scan(stats, self.params) + self._write_cost(
                stmt.table, structures, stats.nrows)
            return cost.total(self.params)
        raise SqlUnsupportedError(
            f"no upper bound for {type(stmt).__name__}")

    # ------------------------------------------------------------------
    # TRANS and SIZE
    # ------------------------------------------------------------------

    def transition_cost(self, old_config: Iterable[IndexDef],
                        new_config: Iterable[IndexDef]) -> Cost:
        """Cost of changing the physical design: build what's new,
        drop what's gone (see :meth:`_transition`)."""
        return Cost(*self._transition(old_config, new_config))

    def transition_units(self, old_config: Iterable[IndexDef],
                         new_config: Iterable[IndexDef]) -> float:
        return self.params.units(*self._transition(old_config,
                                                   new_config))

    def _transition(self, old_config, new_config) -> Tuple:
        """``(page reads, page writes, cpu units)`` of a transition:
        the build row of the set it adds, then one drop charge per
        structure it drops."""
        old, new = frozenset(old_config), frozenset(new_config)
        added = new - old
        reads, writes, cpu = self._build_table.get(added) or \
            self._fill_build_row(added)
        for _ in range(len(old) - len(new) + len(added)):
            cpu += self._drop_charge
        return reads, writes, cpu

    def index_size_bytes(self, definition: IndexDef) -> int:
        return self._geometry(definition).size_bytes

    def configuration_size_bytes(self,
                                 config: Iterable[IndexDef]) -> int:
        return sum(self.index_size_bytes(d) for d in frozenset(config))

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def refresh_stats(self, stats: Mapping[str, TableStats]) -> None:
        """Swap in new statistics (invalidates geometry caches, access
        paths and remembered templates, whose keys hold the old
        selectivities, and bumps the stats epoch so templates cached
        elsewhere go stale)."""
        self._stats = dict(stats)
        self._geometry_cache.clear()
        self._build_table.clear()
        for _info, path_table in self._planning.values():
            path_table.clear()
        self._templates.clear()
        self.stats_epoch += 1

    def _schema_for(self, table: str) -> TableSchema:
        try:
            return self._schemas[table]
        except KeyError:
            raise CatalogError(f"unknown table {table!r}") from None

    def _stats_for(self, table: str) -> TableStats:
        try:
            return self._stats[table]
        except KeyError:
            raise CatalogError(
                f"no statistics for table {table!r}") from None

    def _planned(self, stmt: SelectStmt) -> Tuple[QueryInfo, Dict]:
        entry = self._planning.get(stmt)
        if entry is None:
            entry = self._planning[stmt] = (
                analyze_select(stmt, self._schema_for(stmt.table)), {})
        return entry

    def _serving(self, stmt: SelectStmt, structures) -> Tuple:
        """The structures that serve ``stmt``, in
        :func:`structure_sort_key` order: those whose access-path table
        entry is non-empty."""
        info, path_table = self._planned(stmt)
        stats = self._stats_for(stmt.table)
        indexes, views = self._geometries(stmt.table, structures)
        return tuple(d for d, geometry in indexes + views
                     if structure_paths(info, stats, d, geometry,
                                        self.params, path_table))

    def _probe(self, stmt) -> SelectStmt:
        """The SELECT that locates an UPDATE's or DELETE's rows:
        every column of the table under the statement's WHERE."""
        schema = self._schema_for(stmt.table)
        return SelectStmt(table=stmt.table,
                          columns=tuple(schema.column_names),
                          where=stmt.where)

    def _geometry(self, definition):
        stats = self._stats_for(definition.table)
        key = (definition, stats.nrows)
        geometry = self._geometry_cache.get(key)
        if geometry is None:
            schema = self._schema_for(definition.table)
            if isinstance(definition, ViewDef):
                geometry = ViewGeometry.compute(
                    schema, definition.columns, stats.nrows,
                    definition.compression)
            else:
                geometry = IndexGeometry.compute(
                    schema, definition.columns, stats.nrows,
                    definition.compression)
            self._geometry_cache[key] = geometry
        return geometry

    def _fill_build_row(self, added: FrozenSet) -> Tuple:
        """Store and return the summed ``(page reads, page writes, cpu
        units)`` of building ``added``: a structure's own row is ``0.0
        +`` each component of its build cost; a larger set adds its
        members' rows in :func:`structure_sort_key` order, each
        component from ``0.0``."""
        if len(added) == 1:
            (definition,) = added
            stats = self._stats_for(definition.table)
            geometry = self._geometry(definition)
            if isinstance(definition, ViewDef):
                cost = cost_build_view(stats, geometry.n_pages,
                                       self.params,
                                       geometry.build_cpu_factor)
            else:
                cost = cost_build_index(stats, geometry, self.params)
            row = (0.0 + cost.page_reads, 0.0 + cost.page_writes,
                   0.0 + cost.cpu_units)
        else:
            reads = writes = cpu = 0.0
            for definition in sorted(added, key=structure_sort_key):
                single = frozenset((definition,))
                build_reads, build_writes, build_cpu = \
                    self._build_table.get(single) or \
                    self._fill_build_row(single)
                reads += build_reads
                writes += build_writes
                cpu += build_cpu
            row = (reads, writes, cpu)
        self._build_table[added] = row
        return row

    def _geometries(self, table: str, config: FrozenSet[IndexDef]):
        """Split a configuration into (index pairs, view pairs)."""
        indexes: List[Tuple[IndexDef, IndexGeometry]] = []
        views: List[Tuple[ViewDef, ViewGeometry]] = []
        for definition in sorted(config, key=structure_sort_key):
            if definition.table != table:
                continue
            if isinstance(definition, ViewDef):
                views.append((definition, self._geometry(definition)))
            else:
                indexes.append((definition,
                                self._geometry(definition)))
        return indexes, views


def _maintenance_levels(structures: FrozenSet, table: str) -> Tuple:
    """Sorted multiset of compression levels on ``table`` — the
    signature of everything the insert/write maintenance term reads
    (its length is the historical structure count)."""
    return tuple(sorted(int(d.compression) for d in structures
                        if d.table == table))
