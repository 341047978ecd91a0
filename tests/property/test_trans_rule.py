"""Property tests for the TRANS rule: one build-table lookup per cell.

``WhatIfOptimizer.transition_cost(old, new)`` reads the summed build
cost of the set ``new - old`` from a table keyed by that set, then adds
one drop charge per structure ``old`` loses. It used to fold one row
per added structure, sorted by ``structure_sort_key``, on every call.
``_SortedFold`` below is that rule verbatim; the table must be
unobservable:

* every component of ``transition_cost`` is bitwise the fold's (sign of
  zero and type included), and ``transition_units`` is the fold's
  ``Cost.total``, for configurations passed as frozensets, sets, tuples
  or lists, before and after a statistics refresh;
* ``cost_build_index`` / ``cost_build_view`` run once per structure per
  statistics epoch, and the table holds one entry per distinct added set
  plus the single-structure rows its larger sets are summed from.

Run with ``--hypothesis-seed=0``.
"""

import itertools
import struct

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sqlengine import Database, IndexDef, whatif
from repro.sqlengine.compression import Compression
from repro.sqlengine.costmodel import (Cost, CostParams,
                                       cost_build_index,
                                       cost_build_view, cost_drop_index)
from repro.sqlengine.index import structure_sort_key
from repro.sqlengine.views import ViewDef
from repro.sqlengine.whatif import WhatIfOptimizer

NONE, LIGHT, HEAVY = Compression.NONE, Compression.LIGHT, \
    Compression.HEAVY


class _SortedFold:
    """The sorted-fold TRANS rule, kept as the oracle: per-structure
    build facts added in :func:`structure_sort_key` order, then one
    drop charge per dropped structure, each component from ``0.0``."""

    def __init__(self, optimizer: WhatIfOptimizer):
        self._optimizer = optimizer
        self.params = optimizer.params
        self._build_table = {}
        self._drop_charge = cost_drop_index(self.params).cpu_units

    def transition_cost(self, old_config, new_config) -> Cost:
        old, new = frozenset(old_config), frozenset(new_config)
        reads = writes = cpu = 0.0
        for _key, build_reads, build_writes, build_cpu in sorted(
                [self._build_facts(d) for d in new - old]):
            reads += build_reads
            writes += build_writes
            cpu += build_cpu
        for _definition in old - new:
            cpu += self._drop_charge
        return Cost(reads, writes, cpu)

    def _build_facts(self, definition):
        facts = self._build_table.get(definition)
        if facts is None:
            stats = self._optimizer._stats_for(definition.table)
            geometry = self._optimizer._geometry(definition)
            if isinstance(definition, ViewDef):
                cost = cost_build_view(stats, geometry.n_pages,
                                       self.params,
                                       geometry.build_cpu_factor)
            else:
                cost = cost_build_index(stats, geometry, self.params)
            facts = self._build_table[definition] = (
                structure_sort_key(definition), cost.page_reads,
                cost.page_writes, cost.cpu_units)
        return facts


def _build_db(n_rows):
    db = Database()
    rng = np.random.default_rng(44)
    for table, columns in (("t", ("a", "b", "c")), ("u", ("a", "b"))):
        db.create_table(table, [(c, "INTEGER") for c in columns])
        db.bulk_load(table, {c: rng.integers(0, 80, n_rows)
                             for c in columns})
    return db


_DB = _build_db(2_000)
_GROWN = _build_db(7_000)
#: CPU weights of signed zero: every CPU build component is ``-0.0``,
#: which the fold from ``0.0`` turns into ``0.0``.
_SIGNED_ZERO = CostParams(cpu_tuple_cost=-0.0, cpu_sort_factor=-0.0)

STRUCTURES = [
    definition
    for level in (NONE, LIGHT, HEAVY)
    for definition in (
        IndexDef("t", ("a",), level), IndexDef("t", ("b", "c"), level),
        ViewDef("t", ("a", "b"), level), IndexDef("u", ("a",), level),
        ViewDef("u", ("a", "b"), level))
] + [IndexDef("t", ("c",)), ViewDef("t", ("b", "c"), HEAVY)]

config_st = st.frozensets(st.sampled_from(STRUCTURES), max_size=5)


def _as(form, config):
    """``config`` as a frozenset, set, tuple or list (the list with a
    repeat, as a caller may pass one)."""
    ordered = sorted(config, key=structure_sort_key)
    return {"frozenset": frozenset, "set": set, "tuple": tuple,
            "list": lambda c: ordered + ordered[:1]}[form](ordered)


forms_st = st.sampled_from(("frozenset", "set", "tuple", "list"))
pairs_st = st.lists(st.tuples(config_st, config_st, forms_st),
                    min_size=1, max_size=12)


def _optimizer(db, params=None):
    return WhatIfOptimizer({n: t.schema for n, t in db.tables.items()},
                           {n: db.stats(n) for n in db.tables},
                           params or db.params)


def _bits(cost):
    components = (cost.page_reads, cost.page_writes, cost.cpu_units)
    return (struct.pack("<3d", *components),
            tuple(type(c) for c in components))


def _check(optimizer, oracle, old, new):
    expected = oracle.transition_cost(old, new)
    assert _bits(optimizer.transition_cost(old, new)) == \
        _bits(expected)
    units = optimizer.transition_units(old, new)
    assert struct.pack("<d", units) == \
        struct.pack("<d", expected.total(optimizer.params))


class TestAgainstTheSortedFold:
    @given(pairs=pairs_st, signed_zero=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_every_cell_is_the_fold(self, pairs, signed_zero):
        optimizer = _optimizer(_DB, _SIGNED_ZERO if signed_zero
                               else None)
        for _ in range(2):   # cold table, then warm
            oracle = _SortedFold(optimizer)
            for old, new, form in pairs:
                _check(optimizer, oracle, _as(form, old),
                       _as(form, new))

    @given(pairs=pairs_st)
    @settings(max_examples=60, deadline=None)
    def test_every_cell_is_the_fold_after_a_refresh(self, pairs):
        optimizer = _optimizer(_DB)
        for old, new, _form in pairs:
            optimizer.transition_cost(old, new)
        optimizer.refresh_stats({n: _GROWN.stats(n)
                                 for n in _GROWN.tables})
        oracle = _SortedFold(optimizer)
        cold = _SortedFold(_optimizer(_GROWN))
        for old, new, form in pairs:
            _check(optimizer, oracle, _as(form, old), _as(form, new))
            assert _bits(optimizer.transition_cost(old, new)) == \
                _bits(cold.transition_cost(old, new))

    def test_every_added_set_up_to_four(self):
        """Each set of two to four structures, built from nothing.
        Summed in another order, some of them differ in the last bit,
        so the order is pinned."""
        optimizer = _optimizer(_DB)
        oracle = _SortedFold(optimizer)
        order_matters = 0
        for size in (2, 3, 4):
            for added in itertools.combinations(STRUCTURES, size):
                _check(optimizer, oracle, (), added)
                costs = [oracle.transition_cost((), (d,))
                         for d in added]
                cpu = 0.0
                for cost in reversed(costs):
                    cpu += cost.cpu_units
                order_matters += cpu != oracle.transition_cost(
                    (), added).cpu_units
        assert order_matters > 0


class _Calls:
    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


class TestOncePerStructurePerEpoch:
    @given(pairs=pairs_st)
    @settings(max_examples=60, deadline=None)
    def test_counts(self, pairs):
        index_builds = _Calls(cost_build_index)
        view_builds = _Calls(cost_build_view)
        saved = whatif.cost_build_index, whatif.cost_build_view
        whatif.cost_build_index, whatif.cost_build_view = \
            index_builds, view_builds
        try:
            optimizer = _optimizer(_DB)
            added_sets = {new - old for old, new, _form in pairs}
            members = {frozenset((d,)) for added in added_sets
                       for d in added}
            for epoch in (1, 2):
                for _ in range(2):
                    for old, new, form in pairs:
                        optimizer.transition_units(_as(form, old),
                                                   _as(form, new))
                assert index_builds.calls + view_builds.calls == \
                    epoch * len(members)
                table = optimizer._build_table
                assert set(table) <= added_sets | members
                assert added_sets <= set(table)
                optimizer.refresh_stats({n: _GROWN.stats(n)
                                         for n in _GROWN.tables})
                assert not optimizer._build_table
        finally:
            whatif.cost_build_index, whatif.cost_build_view = saved
