"""Property tests for the what-if optimizer's access-path table.

An access path belongs to a (query, structure) pair: every path the
planner emits uses at most one structure, so the paths a structure
contributes to a query do not depend on what else is in the
configuration. The optimizer keeps them per statistics epoch and the
planner realizes a structure's paths only on a miss. That must be
unobservable:

* every estimate — ``units``, ``cost``, ``access_path`` and ``plan`` —
  and every enumerated path list equals the one the planner's
  enumeration gave before the table existed (kept below verbatim as
  the reference), with the table cold, warm, and after a
  ``refresh_stats`` to a different row count;
* a structure's paths are realized at most once per (query,
  structure, path kind) per epoch, plus one heap path per query
  (counts, not time);
* an attached injector still sees one ``on_estimate`` per estimate,
  however warm the table is.

Run with ``--hypothesis-seed=0``.
"""

from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Configuration
from repro.core.costservice import CostService
from repro.errors import EstimationUnavailable
from repro.faults.injector import FaultInjector, FaultPlan, FaultSpec
from repro.sqlengine import Database, IndexDef, planner, whatif
from repro.sqlengine.compression import Compression
from repro.sqlengine.planner import (_paths_for_index, _realize,
                                     enumerate_access_paths,
                                     total_selectivity)
from repro.sqlengine.sql import parse
from repro.sqlengine.views import ViewDef
from repro.workload import summarize_statements
from repro.workload.model import Statement

COLUMNS = ("a", "b", "c", "d")
DOMAIN = 80
LEVELS = tuple(Compression)


def reference_enumerate_access_paths(info, stats, indexes, params,
                                     views=()):
    """The planner's enumeration before the access-path table: every
    path realized afresh on every call."""
    out_rows = stats.nrows * total_selectivity(info, stats)
    paths = [
        _realize(info, stats, params, out_rows, kind="full_scan")]
    for definition, geometry in indexes:
        if definition.table != info.table:
            continue
        paths.extend(_paths_for_index(info, stats, definition, geometry,
                                      out_rows, params))
    for view_def, view_geometry in views:
        if view_def.table != info.table:
            continue
        if view_def.covers(info.referenced_columns):
            paths.append(_realize(
                info, stats, params, out_rows, kind="view_scan",
                covering=True, view=view_def,
                view_geometry=view_geometry))
    paths.sort(key=lambda p: p.cost.total(params))
    return paths


def _reference_choice(info, stats, indexes, params, views=(),
                      path_table=None):
    return reference_enumerate_access_paths(info, stats, indexes,
                                            params, views)[0]


def _build_db(n_rows):
    db = Database()
    rng = np.random.default_rng(53)
    for table, columns in (("t", COLUMNS), ("u", COLUMNS[:2])):
        db.create_table(table, [(c, "INTEGER") for c in columns])
        db.bulk_load(table, {c: rng.integers(0, DOMAIN, n_rows)
                             for c in columns})
    return db


_DB = _build_db(2_000)
_GROWN = _build_db(5_000)

#: single and composite indexes at every compression level, views
#: that cover some queries and not others, and structures on ``u``
STRUCTURES = (
    [IndexDef("t", key, level)
     for key in (("a",), ("b",), ("a", "b"), ("c", "d"), ("b", "a", "c"))
     for level in LEVELS] +
    [ViewDef("t", columns, level)
     for columns in (("a", "b"), ("c", "d"), ("a", "b", "c", "d"))
     for level in LEVELS] +
    [IndexDef("u", ("a",)), ViewDef("u", ("a", "b"))])

columns_st = st.sampled_from(COLUMNS)
values_st = st.integers(-5, DOMAIN + 5)


@st.composite
def predicate_st(draw):
    column = draw(columns_st)
    op = draw(st.sampled_from(("=", "=", "<", "<=", ">", ">=", "!=",
                               "BETWEEN")))
    if op == "BETWEEN":
        lo, hi = sorted(draw(st.lists(values_st, min_size=2,
                                      max_size=2)))
        return f"{column} BETWEEN {lo} AND {hi}"
    return f"{column} {op} {draw(values_st)}"


def _where(predicates):
    return " WHERE " + " AND ".join(predicates) if predicates else ""


@st.composite
def select_st(draw):
    where = _where(draw(st.lists(predicate_st(), max_size=3)))
    shape = draw(st.sampled_from(("plain", "aggregate", "grouped")))
    if shape == "plain":
        listed = sorted(draw(st.sets(columns_st, min_size=1,
                                     max_size=3)))
        head = "*" if draw(st.booleans()) else ", ".join(listed)
        sql = f"SELECT {head} FROM t{where}"
        if draw(st.booleans()):
            direction = draw(st.sampled_from(("", " DESC")))
            sql += f" ORDER BY {draw(columns_st)}{direction}"
    elif shape == "aggregate":
        sql = f"SELECT COUNT(*), SUM({draw(columns_st)}) FROM t{where}"
    else:
        group = draw(columns_st)
        sql = (f"SELECT {group}, COUNT(*), MAX({draw(columns_st)}) "
               f"FROM t{where} GROUP BY {group}")
        if draw(st.booleans()):
            sql += f" ORDER BY {group}"
    if draw(st.booleans()):
        sql += f" LIMIT {draw(st.integers(0, 50))}"
    return sql


statement_st = st.one_of(
    select_st(),
    st.builds(lambda value, predicates:
              f"UPDATE t SET c = {value}" + _where(predicates),
              values_st, st.lists(predicate_st(), max_size=3)),
    st.builds(lambda predicates: "DELETE FROM t" + _where(predicates),
              st.lists(predicate_st(), max_size=3)),
)
config_st = st.frozensets(st.sampled_from(STRUCTURES), max_size=5)


def _outcome(estimate):
    return (estimate.units, estimate.cost, estimate.access_path,
            estimate.plan)


def _reference_outcome(db, stmt, config):
    """The estimate a cold optimizer gives with the old enumeration."""
    with mock.patch.object(whatif, "choose_access_path",
                           _reference_choice):
        return _outcome(db.what_if().estimate_statement(stmt, config))


def _stats_of(db):
    return {name: db.stats(name) for name in ("t", "u")}


class TestEstimatesEqualTheReference:
    @given(sql=statement_st,
           configs=st.lists(config_st, min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_cold_warm_and_after_a_refresh(self, sql, configs):
        stmt = parse(sql)
        optimizer = _DB.what_if()
        references = [_reference_outcome(_DB, stmt, config)
                      for config in configs]
        for _ in range(2):   # cold table, then warm
            assert [_outcome(optimizer.estimate_statement(stmt, config))
                    for config in configs] == references
        optimizer.refresh_stats(_stats_of(_GROWN))
        grown = [_reference_outcome(_GROWN, stmt, config)
                 for config in configs]
        assert [_outcome(optimizer.estimate_statement(stmt, config))
                for config in configs] == grown

    @given(sql=select_st(),
           configs=st.lists(config_st, min_size=1, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_path_lists_equal_the_reference(self, sql, configs):
        """The whole sorted list, not only its head: same paths, same
        order, from one table shared by every configuration."""
        optimizer = _DB.what_if()
        stmt = parse(sql)
        info, path_table = optimizer._planned(stmt)
        stats = optimizer._stats_for("t")
        for config in configs + configs:
            indexes, views = optimizer._geometries("t", config)
            assert enumerate_access_paths(
                info, stats, indexes, optimizer.params, views,
                path_table) == reference_enumerate_access_paths(
                    info, stats, indexes, optimizer.params, views)

    def test_a_view_that_does_not_serve_stores_no_path(self):
        optimizer = _DB.what_if()
        stmt = parse("SELECT a, b FROM t WHERE c = 3")
        narrow, wide = ViewDef("t", ("a", "b")), \
            ViewDef("t", ("a", "b", "c", "d"))
        optimizer.estimate_statement(stmt, {narrow, wide})
        path_table = optimizer._planned(stmt)[1]
        assert path_table[narrow] == []
        assert [p.kind for p in path_table[wide]] == ["view_scan"]
        assert [p.kind for p in path_table[None]] == ["full_scan"]


def _rich_statements():
    """Reads of many shapes beside DML, every literal twice."""
    texts = []
    for value in (3, 17, 40):
        for column in COLUMNS:
            texts += [f"SELECT {column} FROM t WHERE {column} = {value}",
                      f"SELECT * FROM t WHERE {column} < {value}",
                      f"SELECT a, b FROM t WHERE {column} != {value} "
                      f"ORDER BY b",
                      f"SELECT {column}, COUNT(*) FROM t WHERE "
                      f"a > {value} GROUP BY {column}",
                      f"UPDATE t SET c = 1 WHERE {column} = {value}",
                      f"DELETE FROM t WHERE {column} BETWEEN {value} "
                      f"AND {value + 9}"]
        texts.append(f"INSERT INTO t (a, b, c, d) VALUES "
                     f"({value}, 1, 2, 3)")
    return [Statement(sql) for sql in texts + texts]


def _rich_configurations():
    singles = [Configuration({s}) for s in STRUCTURES]
    pairs = [Configuration(pair)
             for pair in combinations(STRUCTURES[::3], 2)]
    return [Configuration()] + singles + pairs


class TestRealizedOncePerStructure:
    def test_once_per_query_structure_and_kind_per_epoch(self,
                                                         monkeypatch):
        realized = []

        def recording(info, stats, params, out_rows, kind, **kwargs):
            structure = kwargs.get("index") or kwargs.get("view")
            realized.append((id(info), structure, kind))
            return _realize(info, stats, params, out_rows, kind,
                            **kwargs)

        monkeypatch.setattr(planner, "_realize", recording)
        estimates = []
        estimate = whatif.WhatIfOptimizer.estimate_statement

        def counting(self, stmt, config):
            estimates.append(stmt)
            return estimate(self, stmt, config)

        monkeypatch.setattr(whatif.WhatIfOptimizer, "estimate_statement",
                            counting)
        optimizer = _DB.what_if()
        summary = summarize_statements(_rich_statements(),
                                       block_size=40)
        configs = _rich_configurations()
        for stats in (_stats_of(_DB), _stats_of(_GROWN)):
            optimizer.refresh_stats(stats)
            realized.clear()
            estimates.clear()
            CostService(optimizer).exec_matrix(summary.phases, configs)
            assert len(realized) == len(set(realized))
            heaps = [info for info, _, kind in realized
                     if kind == "full_scan"]
            assert len(heaps) == len(set(heaps)) == \
                len({info for info, _, _ in realized})
            assert all(structure is not None
                       for _, structure, kind in realized
                       if kind != "full_scan")
            # the table does the work: fewer plans than estimates
            assert len(realized) < len(estimates)


class _CountingInjector:
    """Counts ``on_estimate`` calls and never fires."""

    def __init__(self):
        self.calls = 0

    def on_estimate(self, key=None):
        self.calls += 1


class TestFaultSiteBeforeTheTable:
    SQL = ("SELECT a, b FROM t WHERE a = 5 ORDER BY b",
           "UPDATE t SET c = 1 WHERE b < 20",
           "DELETE FROM t WHERE c = 7",
           "INSERT INTO t (a, b, c, d) VALUES (1, 2, 3, 4)")

    def test_one_on_estimate_per_estimate_with_a_warm_table(self):
        optimizer = _DB.what_if()
        stmts = [parse(sql) for sql in self.SQL]
        configs = [frozenset(), frozenset(STRUCTURES[:4]),
                   frozenset(STRUCTURES[-6:])]
        cold = [optimizer.estimate_statement(stmt, config)
                for stmt in stmts for config in configs]
        optimizer.fault_injector = injector = _CountingInjector()
        for rounds in (1, 2):
            warm = [optimizer.estimate_statement(stmt, config)
                    for stmt in stmts for config in configs]
            assert injector.calls == rounds * len(stmts) * len(configs)
            assert warm == cold

    def test_a_warm_table_still_raises_at_the_fault_site(self):
        optimizer = _DB.what_if()
        stmt = parse(self.SQL[0])
        config = frozenset(STRUCTURES[:4])
        expected = optimizer.estimate_statement(stmt, config)
        optimizer.fault_injector = FaultInjector(FaultPlan(specs=(
            FaultSpec("estimate", probability=1.0),)))
        with pytest.raises(EstimationUnavailable):
            optimizer.estimate_statement(stmt, config)
        assert optimizer.fault_injector.calls["estimate"] == 1
        optimizer.fault_injector = None
        assert optimizer.estimate_statement(stmt, config) == expected
