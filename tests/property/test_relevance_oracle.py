"""Relevance signatures against the serve-ability rule they replaced.

A structure serves a query exactly when its entry in the what-if
optimizer's access-path table is non-empty, so the table decides what
a relevance signature holds. Before it did, the planner restated the
enumeration's gating rules by hand; that rule is kept below verbatim
(``structure_can_serve``) as the reference. The signatures the table
gives must equal the ones the rule gives for SELECT, UPDATE, DELETE
and INSERT shapes over configurations that mix single and composite
indexes, views, compressed variants and structures on another table —
with the table cold, warm, and after a ``refresh_stats`` to a
different row count.

Run with ``--hypothesis-seed=0``.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.sqlengine import Database, IndexDef
from repro.sqlengine.compression import Compression
from repro.sqlengine.index import structure_sort_key
from repro.sqlengine.planner import QueryInfo
from repro.sqlengine.sql.ast import InsertStmt, SelectStmt
from repro.sqlengine.views import ViewDef
from repro.workload.model import Statement

COLUMNS = ("a", "b", "c", "d")
DOMAIN = 60
LIGHT, HEAVY = Compression.LIGHT, Compression.HEAVY


def structure_can_serve(info: QueryInfo, definition) -> bool:
    """Whether a design structure can contribute *any* access path to
    a query — the gate under which :func:`enumerate_access_paths`
    would realize a plan for it.

    This must stay the exact mirror of the enumeration rules above: an
    index serves when it offers a seek (an equality prefix, or a range
    on the column right after the prefix) or an index-only scan
    (covering); a view serves when it covers every referenced column;
    structures on other tables never serve. A structure that does not
    serve adds no path, so its presence or absence cannot change the
    chosen plan or its cost — that equivalence is what the what-if
    layer's relevance signatures are built on.

    Compression never changes *whether* a structure serves (coverage
    and seekability are column properties) — only the page/CPU
    trade-off of its realized paths. Variants at different levels are
    nevertheless distinct candidates end to end: the level is part of
    the definition's identity, so each variant enters the enumeration
    with its own geometry and lands in relevance signatures as its own
    member.
    """
    if definition.table != info.table:
        return False
    if isinstance(definition, ViewDef):
        return definition.covers(info.referenced_columns)
    covering = definition.covers(info.referenced_columns)
    prefix_len = 0
    for column in definition.columns:
        if column in info.eq_predicates:
            prefix_len += 1
        else:
            break
    uses_range = (prefix_len < len(definition.columns) and
                  definition.columns[prefix_len] in
                  info.range_predicates)
    return prefix_len > 0 or uses_range or covering


def reference_signature(optimizer, template, config):
    """The signature the hand-written rule gives: the serving subset
    in sort-key order, plus the on-table compression levels for
    DML."""
    stmt = template.representative
    levels = tuple(sorted(int(d.compression) for d in config
                          if d.table == stmt.table))
    if isinstance(stmt, InsertStmt):
        return ("insert", stmt.table, levels)
    probe = stmt if isinstance(stmt, SelectStmt) else \
        optimizer._probe(stmt)
    info = optimizer._planned(probe)[0]
    serving = tuple(d for d in sorted(config, key=structure_sort_key)
                    if structure_can_serve(info, d))
    if isinstance(stmt, SelectStmt):
        return ("select", serving)
    return ("write", serving, levels)


def _build_db(n_rows):
    db = Database()
    rng = np.random.default_rng(7)
    for table, columns in (("t", COLUMNS), ("u", COLUMNS[:2])):
        db.create_table(table, [(c, "INTEGER") for c in columns])
        db.bulk_load(table, {c: rng.integers(0, DOMAIN, n_rows)
                             for c in columns})
    return db


_DB = _build_db(1_500)
_GROWN = _build_db(4_000)
_GROWN_STATS = {name: _GROWN.stats(name) for name in ("t", "u")}

STRUCTURES = (
    [IndexDef("t", key, level)
     for key in (("a",), ("b",), ("a", "b"), ("b", "a"), ("c", "d"),
                 ("a", "b", "c"))
     for level in (Compression.NONE, HEAVY)] +
    [IndexDef("t", ("d",), LIGHT)] +
    [ViewDef("t", columns, level)
     for columns in (("a", "b"), ("b", "c", "d"), COLUMNS)
     for level in (Compression.NONE, LIGHT)] +
    [IndexDef("u", ("a",)), IndexDef("u", ("a", "b"), LIGHT),
     ViewDef("u", ("a", "b"))])

columns_st = st.sampled_from(COLUMNS)
values_st = st.integers(-3, DOMAIN + 3)
predicate_st = st.one_of(
    st.builds(lambda column, op, value: f"{column} {op} {value}",
              columns_st,
              st.sampled_from(("=", "<", "<=", ">", ">=", "!=")),
              values_st),
    st.builds(lambda column, lo, hi: f"{column} BETWEEN {lo} AND {hi}",
              columns_st, values_st, values_st))
where_st = st.lists(predicate_st, max_size=3).map(
    lambda ps: " WHERE " + " AND ".join(ps) if ps else "")
statement_st = st.one_of(
    st.builds(lambda cs, where, order: f"SELECT {', '.join(sorted(cs))}"
              f" FROM t{where}{order}",
              st.sets(columns_st, min_size=1, max_size=4), where_st,
              st.sampled_from(("", " ORDER BY b", " ORDER BY c DESC"))),
    st.builds(lambda group, where: f"SELECT {group}, COUNT(*) FROM t"
              f"{where} GROUP BY {group}", columns_st, where_st),
    st.builds(lambda where: f"SELECT * FROM t{where}", where_st),
    st.builds(lambda value, where: f"UPDATE t SET c = {value}{where}",
              values_st, where_st),
    st.builds(lambda where: f"DELETE FROM t{where}", where_st),
    st.builds(lambda rows: "INSERT INTO t (a, b, c, d) VALUES " +
              ", ".join(["(1, 2, 3, 4)"] * rows), st.integers(1, 3)))
config_st = st.frozensets(st.sampled_from(STRUCTURES), max_size=5)


def _assert_signatures_match(optimizer, template, configs):
    expected = [reference_signature(optimizer, template, config)
                for config in configs]
    assert [optimizer.relevance_signature(template, config)
            for config in configs] == expected
    assert optimizer.relevance_signatures(template, configs) == expected


class TestTheTableDecidesAsTheRuleDid:
    @given(sql=statement_st, configs=st.lists(config_st, min_size=1,
                                              max_size=6))
    @settings(max_examples=300, deadline=None)
    # A range on the column after the prefix, alone, serves ...
    @example(sql="SELECT c FROM t WHERE a < 9",
             configs=[frozenset({IndexDef("t", ("a",)),
                                 IndexDef("t", ("b", "a"))})])
    @example(sql="DELETE FROM t WHERE a = 3 AND b > 9",
             configs=[frozenset({IndexDef("t", ("a", "b"), HEAVY)})])
    # ... and so does a covering index with no usable prefix.
    @example(sql="SELECT b FROM t WHERE c = 2",
             configs=[frozenset({IndexDef("t", ("a", "b")),
                                 ViewDef("t", ("a", "b"))})])
    def test_cold_warm_and_after_a_refresh(self, sql, configs):
        optimizer = _DB.what_if()
        template = optimizer.statement_template(Statement(sql))
        _assert_signatures_match(optimizer, template, configs)
        for config in configs:
            optimizer.estimate_statement(template.representative,
                                         config)
        _assert_signatures_match(optimizer, template, configs)
        optimizer.refresh_stats(_GROWN_STATS)
        _assert_signatures_match(optimizer, template, configs)

    def test_every_structure_alone_and_all_together(self):
        optimizer = _DB.what_if()
        configs = [frozenset(), frozenset(STRUCTURES)] + \
            [frozenset({s}) for s in STRUCTURES]
        for sql in ("SELECT a, b FROM t WHERE a = 3 AND b < 9",
                    "SELECT b FROM t WHERE a > 7",
                    "SELECT c, d FROM t",
                    "SELECT * FROM t WHERE a != 4",
                    "INSERT INTO t (a, b, c, d) VALUES (1, 2, 3, 4)",
                    "UPDATE t SET c = 1 WHERE a = 3 AND b = 2",
                    "DELETE FROM t WHERE b BETWEEN 5 AND 9"):
            template = optimizer.statement_template(Statement(sql))
            _assert_signatures_match(optimizer, template, configs)
