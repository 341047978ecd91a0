"""Property tests for the per-structure tables.

Two facts the costing layer computes once instead of once per cell:

* a *build cost* belongs to a structure — ``transition_cost(old, new)``
  reads one row of the optimizer's per-epoch build table, keyed by the
  set ``new - old`` and summed from single-structure rows in sort-key
  order, and must equal the ``Cost() + build + ... + drop`` chain, bit
  for bit, before and after a statistics refresh
  (``test_trans_rule.py`` holds it to the sorted fold it replaced);
* *serve-ability* belongs to a (template, structure) pair —
  ``relevance_signatures(template, configs)`` derives one signature on
  the union of the configurations and must equal the per-configuration
  ``relevance_signature`` list.

The count tests hold the batch paths to "once per template" and "once
per structure" — counts, not time. Run with ``--hypothesis-seed=0``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import Configuration, WhatIfCostProvider
from repro.core.costservice import CostService
from repro.sqlengine import Database, IndexDef, whatif
from repro.sqlengine.compression import Compression
from repro.sqlengine.costmodel import (Cost, cost_build_index,
                                       cost_build_view,
                                       cost_drop_index)
from repro.sqlengine.index import structure_sort_key
from repro.sqlengine.views import ViewDef
from repro.sqlengine.whatif import WhatIfOptimizer
from repro.workload.model import Statement

COLUMNS = ("a", "b", "c", "d")
DOMAIN = 60
LIGHT, HEAVY = Compression.LIGHT, Compression.HEAVY


def _build_db(n_rows):
    db = Database()
    rng = np.random.default_rng(41)
    for table, columns in (("t", COLUMNS), ("u", COLUMNS[:2])):
        db.create_table(table, [(c, "INTEGER") for c in columns])
        db.bulk_load(table, {c: rng.integers(0, DOMAIN, n_rows)
                             for c in columns})
    return db


_DB = _build_db(1_500)
_GROWN = _build_db(4_000)

STRUCTURES = [
    IndexDef("t", ("a",)), IndexDef("t", ("a",), LIGHT),
    IndexDef("t", ("a",), HEAVY), IndexDef("t", ("b",)),
    IndexDef("t", ("a", "b")), IndexDef("t", ("a", "b"), HEAVY),
    IndexDef("t", ("c", "d")), IndexDef("t", ("d",), LIGHT),
    ViewDef("t", ("a", "b")), ViewDef("t", ("a", "b"), HEAVY),
    ViewDef("t", ("c", "d"), LIGHT), ViewDef("t", ("b", "c", "d")),
    IndexDef("u", ("a",)), IndexDef("u", ("a", "b"), LIGHT),
    ViewDef("u", ("a", "b")),
]

columns_st = st.sampled_from(COLUMNS)
values_st = st.integers(0, DOMAIN)
predicates_st = st.lists(
    st.tuples(columns_st, st.sampled_from(("=", "<", ">")), values_st),
    max_size=2, unique_by=lambda p: p[0])
config_st = st.frozensets(st.sampled_from(STRUCTURES), max_size=4)


def _where(predicates):
    if not predicates:
        return ""
    return " WHERE " + " AND ".join(
        f"{column} {op} {value}" for column, op, value in predicates)


def _select(select_columns, predicates):
    return f"SELECT {', '.join(sorted(select_columns))} FROM t" + \
        _where(predicates)


statement_st = st.one_of(
    st.builds(_select, st.sets(columns_st, min_size=1, max_size=3),
              predicates_st),
    st.builds(lambda value:
              f"INSERT INTO t (a, b, c, d) VALUES ({value}, 1, 2, 3)",
              values_st),
    st.builds(lambda value, predicates:
              f"UPDATE t SET c = {value}" + _where(predicates),
              values_st, predicates_st),
    st.builds(lambda predicates: "DELETE FROM t" + _where(predicates),
              predicates_st),
)


def _reference_transition(optimizer, old, new):
    """The chain ``transition_cost`` used to run: one ``Cost`` per
    structure, added in sort-key order from a zero ``Cost``."""
    cost = Cost()
    for definition in sorted(new - old, key=structure_sort_key):
        stats = optimizer._stats_for(definition.table)
        geometry = optimizer._geometry(definition)
        if isinstance(definition, ViewDef):
            cost = cost + cost_build_view(
                stats, geometry.n_pages, optimizer.params,
                geometry.build_cpu_factor)
        else:
            cost = cost + cost_build_index(stats, geometry,
                                           optimizer.params)
    for _definition in sorted(old - new, key=structure_sort_key):
        cost = cost + cost_drop_index(optimizer.params)
    return cost


def _stats_of(db):
    return {name: db.stats(name) for name in ("t", "u")}


class _Calls:
    """Counts calls through a wrapped function."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


class TestSignatureRows:
    @given(sql=statement_st,
           configs=st.lists(config_st, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_row_equals_per_configuration_signatures(self, sql,
                                                     configs):
        """Views, LIGHT/HEAVY variants, other-table structures, the
        empty configuration, repeats and the empty list included."""
        optimizer = _DB.what_if()
        template = optimizer.statement_template(Statement(sql))
        # Repeated and empty configurations ride along on every draw.
        configs = configs + configs[:2] + [frozenset()] \
            if configs else configs
        assert optimizer.relevance_signatures(template, configs) == \
            [optimizer.relevance_signature(template, config)
             for config in configs]

    def test_every_statement_kind_with_every_structure(self):
        optimizer = _DB.what_if()
        configs = [frozenset(), frozenset(STRUCTURES)] + \
            [frozenset({s}) for s in STRUCTURES] + \
            [frozenset(STRUCTURES[i:i + 3])
             for i in range(len(STRUCTURES) - 2)]
        kinds = set()
        for sql in ("SELECT a, b FROM t WHERE a = 3 AND b < 9",
                    "SELECT c FROM t WHERE d > 7",
                    "INSERT INTO t (a, b, c, d) VALUES (1, 2, 3, 4)",
                    "UPDATE t SET c = 1 WHERE a = 3",
                    "DELETE FROM t WHERE c < 5 AND d = 2"):
            template = optimizer.statement_template(Statement(sql))
            row = optimizer.relevance_signatures(template, configs)
            assert row == [optimizer.relevance_signature(template, c)
                           for c in configs]
            kinds.update(signature[0] for signature in row)
            assert len(set(row)) > 1
        assert kinds == {"select", "insert", "write"}


class TestBuildTable:
    @given(old=config_st, new=config_st)
    @settings(max_examples=200, deadline=None)
    def test_fold_equals_the_cost_chain(self, old, new):
        optimizer = _DB.what_if()
        for _ in range(2):  # cold table, then warm
            assert optimizer.transition_cost(old, new) == \
                _reference_transition(optimizer, old, new)
        assert optimizer.transition_units(old, new) == \
            _reference_transition(optimizer, old, new).total(
                optimizer.params)

    @given(old=config_st, new=config_st)
    @settings(max_examples=60, deadline=None)
    def test_entry_does_not_survive_the_epoch(self, old, new):
        optimizer = _DB.what_if()
        before = optimizer.transition_cost(old, new)
        optimizer.refresh_stats(_stats_of(_GROWN))
        after = optimizer.transition_cost(old, new)
        assert after == _reference_transition(optimizer, old, new)
        cold = _GROWN.what_if().transition_cost(old, new)
        assert after == cold
        if new - old:
            assert after != before   # more rows: every build dearer


SEGMENTS = [
    (Statement("SELECT a FROM t WHERE a = 3"),
     Statement("SELECT a FROM t WHERE a = 4"),
     Statement("UPDATE t SET c = 1 WHERE b = 2")),
    (Statement("SELECT c, d FROM t WHERE c < 9"),
     Statement("INSERT INTO t (a, b, c, d) VALUES (1, 2, 3, 4)"),
     Statement("SELECT a FROM t WHERE a = 3")),
    (Statement("DELETE FROM t WHERE d = 2"),
     Statement("SELECT b FROM t WHERE a = 1 AND b > 5")),
]
N_TEMPLATES = 6   # the two a = ? point queries share one
CONFIGS = [Configuration()] + \
    [Configuration({s}) for s in STRUCTURES] + \
    [Configuration(STRUCTURES[i:i + 2])
     for i in range(len(STRUCTURES) - 1)]


class TestOncePerTemplateOncePerStructure:
    def test_exec_matrix_derives_one_signature_per_template(
            self, monkeypatch):
        counter = _Calls(WhatIfOptimizer.relevance_signature)
        monkeypatch.setattr(
            WhatIfOptimizer, "relevance_signature",
            lambda self, *args: counter(self, *args))
        service = CostService(_DB.what_if())
        service.exec_matrix(SEGMENTS, CONFIGS)
        assert service.stats.unique_templates == N_TEMPLATES
        assert 0 < counter.calls <= N_TEMPLATES
        assert service.stats.unique_signatures > N_TEMPLATES
        # A warm rebuild holds every cell: no derivation at all.
        service.exec_matrix(SEGMENTS, CONFIGS)
        assert counter.calls <= N_TEMPLATES

    def test_trans_matrix_prices_each_structure_once(self,
                                                     monkeypatch):
        index_builds = _Calls(cost_build_index)
        view_builds = _Calls(cost_build_view)
        monkeypatch.setattr(whatif, "cost_build_index", index_builds)
        monkeypatch.setattr(whatif, "cost_build_view", view_builds)
        service = CostService(_DB.what_if())
        matrix = service.trans_matrix(CONFIGS)
        assert service.stats.trans_calls == \
            len(CONFIGS) * (len(CONFIGS) - 1)
        assert 0 < index_builds.calls + view_builds.calls <= \
            len(STRUCTURES)
        assert index_builds.calls == sum(
            isinstance(s, IndexDef) for s in STRUCTURES)
        direct = WhatIfCostProvider(_DB.what_if())
        assert all(matrix[i, j] == direct.trans_cost(old, new)
                   for i, old in enumerate(CONFIGS)
                   for j, new in enumerate(CONFIGS) if i != j)


class TestServiceStillMatchesTheReference:
    def test_batch_twice_and_scalar_after_batch(self):
        direct = WhatIfCostProvider(_DB.what_if())
        expected = np.array([[direct.exec_cost(segment, config)
                              for config in CONFIGS]
                             for segment in SEGMENTS])
        service = CostService(_DB.what_if())
        first = service.exec_matrix(SEGMENTS, CONFIGS)
        calls = service.stats.whatif_calls
        assert np.array_equal(first, expected)
        assert np.array_equal(service.exec_matrix(SEGMENTS, CONFIGS),
                              expected)
        for i, segment in enumerate(SEGMENTS):
            for j, config in enumerate(CONFIGS):
                assert service.exec_cost(segment, config) == \
                    expected[i, j]
        assert service.stats.whatif_calls == calls

    def test_partly_warm_row(self):
        """Scalar calls first, then a batch that finds some cells of
        each row in the template tier and some signatures in the
        signature tier."""
        direct = WhatIfCostProvider(_DB.what_if())
        service = CostService(_DB.what_if())
        for config in CONFIGS[::3]:
            service.exec_cost(SEGMENTS[0], config)
        matrix = service.exec_matrix(SEGMENTS, CONFIGS)
        assert all(matrix[i, j] == direct.exec_cost(segment, config)
                   for i, segment in enumerate(SEGMENTS)
                   for j, config in enumerate(CONFIGS))
        cold = CostService(_DB.what_if())
        cold.exec_matrix(SEGMENTS, CONFIGS)
        assert service.stats.unique_signatures == \
            cold.stats.unique_signatures
