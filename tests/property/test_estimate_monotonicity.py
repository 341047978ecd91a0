"""Metamorphic checks: what adding one structure may do to an estimate.

* A SELECT's estimate never rises: its plan is the cheapest of the
  paths the configuration's structures contribute, and a superset
  only adds paths.
* An INSERT's estimate never falls: one more structure is one more
  to maintain, at a compression surcharge of at least zero.
* An UPDATE's or DELETE's estimate never falls when the structure
  cannot serve its row-location probe (the probe keeps its plan and
  the write term only grows) — but it *can* fall when the structure
  serves: a seek that finds the rows may save more than the extra
  maintenance costs. The pinned counterexample below is why "adding a
  structure never lowers a DML estimate" is not a property.

Run with ``--hypothesis-seed=0``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sqlengine import Database, IndexDef
from repro.sqlengine.compression import Compression
from repro.sqlengine.sql import parse
from repro.sqlengine.views import ViewDef

from .test_relevance_oracle import structure_can_serve

COLUMNS = ("a", "b", "c", "d")
DOMAIN = 80


def _build_db(n_rows, domain, seed):
    db = Database()
    rng = np.random.default_rng(seed)
    for table, columns in (("t", COLUMNS), ("u", COLUMNS[:2])):
        db.create_table(table, [(c, "INTEGER") for c in columns])
        db.bulk_load(table, {c: rng.integers(0, domain, n_rows)
                             for c in columns})
    return db


_DB = _build_db(3_000, DOMAIN, 61)

STRUCTURES = (
    [IndexDef("t", key, level)
     for key in (("a",), ("b",), ("a", "b"), ("c", "d"), ("d", "a"))
     for level in Compression] +
    [ViewDef("t", columns, level)
     for columns in (("a", "b"), ("b", "c", "d"), ("a", "b", "c", "d"))
     for level in Compression] +
    [IndexDef("u", ("a",)), ViewDef("u", ("a", "b"))])

columns_st = st.sampled_from(COLUMNS)
values_st = st.integers(-5, DOMAIN + 5)
predicate_st = st.builds(
    lambda column, op, value: f"{column} {op} {value}",
    columns_st, st.sampled_from(("=", "<", "<=", ">", ">=", "!=")),
    values_st)
where_st = st.lists(predicate_st, max_size=3).map(
    lambda ps: " WHERE " + " AND ".join(ps) if ps else "")
select_st = st.one_of(
    st.builds(lambda cs, where, order: f"SELECT {', '.join(sorted(cs))} "
              f"FROM t{where}{order}",
              st.sets(columns_st, min_size=1, max_size=4), where_st,
              st.sampled_from(("", " ORDER BY b", " ORDER BY a DESC"))),
    st.builds(lambda group, where: f"SELECT {group}, COUNT(*) FROM t"
              f"{where} GROUP BY {group}", columns_st, where_st),
    st.builds(lambda where, limit: f"SELECT * FROM t{where} LIMIT {limit}",
              where_st, st.integers(0, 40)))
dml_st = st.one_of(
    st.builds(lambda value, where: f"UPDATE t SET c = {value}{where}",
              values_st, where_st),
    st.builds(lambda where: f"DELETE FROM t{where}", where_st))
config_st = st.frozensets(st.sampled_from(STRUCTURES), max_size=4)
structure_st = st.sampled_from(STRUCTURES)


def _units(optimizer, stmt, config):
    return optimizer.estimate_statement(stmt, config).units


class TestAddingAStructure:
    @given(sql=select_st, config=config_st, added=structure_st)
    @settings(max_examples=300, deadline=None)
    def test_never_raises_a_select_estimate(self, sql, config, added):
        optimizer = _DB.what_if()
        stmt = parse(sql)
        assert _units(optimizer, stmt, config | {added}) <= \
            _units(optimizer, stmt, config)

    @given(rows=st.integers(1, 5), config=config_st, added=structure_st)
    @settings(max_examples=200, deadline=None)
    def test_never_lowers_an_insert_estimate(self, rows, config, added):
        optimizer = _DB.what_if()
        stmt = parse("INSERT INTO t (a, b, c, d) VALUES " +
                     ", ".join(["(1, 2, 3, 4)"] * rows))
        assert _units(optimizer, stmt, config | {added}) >= \
            _units(optimizer, stmt, config)

    @given(sql=dml_st, config=config_st, added=structure_st)
    @settings(max_examples=300, deadline=None)
    def test_a_structure_that_cannot_serve_never_lowers_dml(
            self, sql, config, added):
        optimizer = _DB.what_if()
        stmt = parse(sql)
        probe = optimizer._planned(optimizer._probe(stmt))[0]
        before = _units(optimizer, stmt, config)
        after = _units(optimizer, stmt, config | {added})
        if not structure_can_serve(probe, added):
            assert after >= before


class TestDmlCanGetCheaper:
    """The counterexample to "adding a structure never lowers a DML
    estimate": 50 000 uniform rows, four INTEGER columns."""

    @pytest.fixture(scope="class")
    def optimizer(self):
        return _build_db(50_000, 50_000, 0).what_if()

    def test_an_index_on_the_where_column_lowers_an_update(self,
                                                          optimizer):
        stmt = parse("UPDATE t SET b = 1 WHERE a = 5")
        without = _units(optimizer, stmt, ())
        with_index = _units(optimizer, stmt, {IndexDef("t", ("a",))})
        assert round(without, 2) == 206.16
        assert round(with_index, 2) == 13.28
        assert with_index < without

    def test_and_a_delete(self, optimizer):
        stmt = parse("DELETE FROM t WHERE a = 5")
        assert _units(optimizer, stmt, {IndexDef("t", ("a",))}) < \
            _units(optimizer, stmt, ())
