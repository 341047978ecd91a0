"""Property-based tests: an index's sorted leaf level, and the seek
that reads it, against a sorted-list oracle.

An index is priced as a B+-tree but held as its leaf level: key
columns and rids sorted by (key columns, rid). Whatever DML runs, the
entries must be exactly the oracle's, and an equality, prefix or range
seek must return exactly the entries a filter over the oracle keeps.
"""

import bisect

from hypothesis import given, settings, strategies as st

from repro.sqlengine import (Database, IndexDef, MeteredCost,
                             PlanRuntime, SeekIndex, analyze_select,
                             parse)

keys = st.integers(min_value=0, max_value=200)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), keys),
        st.tuples(st.just("delete"), keys),
    ),
    max_size=300)


class Oracle:
    """Sorted ``((key,), rid)`` list."""

    def __init__(self):
        self.pairs = []

    def insert(self, key, rid):
        bisect.insort(self.pairs, ((key,), rid))

    def delete(self, key, rid):
        for i, (k, r) in enumerate(self.pairs):
            if k == (key,) and r == rid:
                del self.pairs[i]
                return True
        return False

    def search(self, key):
        return [r for k, r in self.pairs if k == (key,)]


def _db(columns, key_columns, rows=()):
    """A table of INTEGER ``columns`` bulk-loaded with ``rows`` (a
    row's rid is its position), then indexed on ``key_columns``."""
    db = Database()
    db.create_table("t", [(c, "INTEGER") for c in columns])
    if rows:
        db.bulk_load("t", {c: [row[i] for row in rows]
                           for i, c in enumerate(columns)})
    return db, db.create_index(IndexDef("t", key_columns))


def _entries(index):
    """The leaf level as Python ``(key tuple, rid)`` pairs, in order."""
    cols, rids = index.leaf_arrays()
    keys = [cols[c] for c in index.definition.columns]
    return [(tuple(k[i].item() for k in keys), int(rids[i]))
            for i in range(len(rids))]


def _check_invariants(index):
    """Strictly ascending by (key, rid), one entry per live heap row,
    and geometry over the heap's row count."""
    entries = _entries(index)
    assert all(a < b for a, b in zip(entries, entries[1:]))
    table = index.table
    assert sorted(r for _, r in entries) == table.live_rids().tolist()
    assert index.geometry().nrows == table.nrows == len(entries)


def _seek(db, index, where):
    """Run the executor's :class:`SeekIndex` over ``index`` for
    ``where`` (an equality prefix, then at most a range on the next
    key column); returns the sought ``(key tuple, rid)`` entries."""
    table = db.table("t")
    info = analyze_select(parse(f"SELECT * FROM t WHERE {where}"),
                          table.schema)
    if info.unsatisfiable:
        return []
    columns = index.definition.columns
    eq_prefix_len = 0
    while eq_prefix_len < len(columns) and \
            columns[eq_prefix_len] in info.eq_predicates:
        eq_prefix_len += 1
    uses_range = eq_prefix_len < len(columns) and \
        columns[eq_prefix_len] in info.range_predicates
    node = SeekIndex(info, index.definition, index.geometry(),
                     eq_prefix_len, uses_range)
    runtime = PlanRuntime(table=table,
                          indexes={index.definition: index}, views={},
                          buffer_manager=db.buffer_manager,
                          params=db.params, metered=MeteredCost())
    stream = node.run(runtime)
    keys = [stream.column(c) for c in columns]
    return [(tuple(k[i].item() for k in keys), int(stream.rids[i]))
            for i in range(len(stream))]


def _delete_one(db, index, key):
    """Delete the lowest-rid row holding ``key`` (the one the seek
    finds first); returns its rid, or None when no row holds it. The
    tests INSERT each row with ``id`` equal to its rid."""
    victims = [rid for _, rid in _seek(db, index, f"k = {key}")]
    if not victims:
        return None
    victim = min(victims)
    db.execute(f"DELETE FROM t WHERE id = {victim}")
    return victim


@given(ops=ops)
@settings(max_examples=60, deadline=None)
def test_btree_matches_oracle_under_random_ops(ops):
    """Exact-content oracle check. Deletes target one (key, rid) pair:
    the lowest rid the seek finds for the key."""
    db, index = _db(("k", "id"), ("k",))
    oracle = Oracle()
    rid = 0
    for op, key in ops:
        if op == "insert":
            db.execute(f"INSERT INTO t (k, id) VALUES ({key}, {rid})")
            oracle.insert(key, rid)
            rid += 1
        else:
            nrows = db.table("t").nrows
            victim = _delete_one(db, index, key)
            deleted = db.table("t").nrows == nrows - 1
            assert deleted == oracle.delete(key, victim)
    assert _entries(index) == oracle.pairs
    _check_invariants(index)


@given(ops=ops)
@settings(max_examples=40, deadline=None)
def test_btree_searches_match_oracle(ops):
    db, index = _db(("k", "id"), ("k",))
    oracle = Oracle()
    rid = 0
    for op, key in ops:
        if op == "insert":
            db.execute(f"INSERT INTO t (k, id) VALUES ({key}, {rid})")
            oracle.insert(key, rid)
            rid += 1
        else:
            oracle.delete(key, _delete_one(db, index, key))
        got = [r for _, r in _seek(db, index, f"k = {key}")]
        assert got == oracle.search(key)


@given(ops=ops)
@settings(max_examples=40, deadline=None)
def test_ridless_delete_removes_exactly_one_duplicate(ops):
    """Index maintenance is told only that a row went, not which entry
    held it; deleting one row that shares its key with others must
    still drop exactly one entry, and the survivors are a subset of
    what was there."""
    db, index = _db(("k", "id"), ("k",))
    rid = 0
    for op, key in ops:
        if op == "insert":
            db.execute(f"INSERT INTO t (k, id) VALUES ({key}, {rid})")
            rid += 1
        else:
            before = set(_seek(db, index, f"k = {key}"))
            removed = _delete_one(db, index, key) is not None
            after = set(_seek(db, index, f"k = {key}"))
            assert removed == bool(before)
            assert len(after) == max(0, len(before) - bool(before))
            assert after <= before
    _check_invariants(index)


@given(data=st.lists(st.tuples(keys, keys), min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_bulk_load_equals_incremental_inserts(data):
    """An index built over a bulk load holds exactly the entries of one
    kept up to date through the same rows' INSERTs."""
    _, bulk = _db(("k", "v"), ("k",), data)
    incremental_db, incremental = _db(("k", "v"), ("k",))
    for key, value in data:
        incremental_db.execute(
            f"INSERT INTO t (k, v) VALUES ({key}, {value})")
    assert _entries(bulk) == _entries(incremental)
    assert _entries(bulk) == sorted(
        ((k,), rid) for rid, (k, _) in enumerate(data))
    _check_invariants(bulk)
    _check_invariants(incremental)


@given(data=st.lists(st.tuples(keys, keys, keys), min_size=1,
                     max_size=150),
       lo=st.tuples(keys), hi=st.tuples(keys))
@settings(max_examples=50, deadline=None)
def test_composite_range_scan_matches_filter(data, lo, hi):
    db, index = _db(("a", "b", "c"), ("a", "b"), data)
    got = _seek(db, index, f"a >= {lo[0]} AND a <= {hi[0]}")
    want = sorted(((a, b), rid) for rid, (a, b, _) in enumerate(data)
                  if (a,) >= lo and (a,) <= hi)
    assert got == want


@given(data=st.lists(st.tuples(keys, keys), min_size=1, max_size=150),
       prefix=keys)
@settings(max_examples=50, deadline=None)
def test_prefix_search_matches_filter(data, prefix):
    db, index = _db(("a", "b"), ("a", "b"), data)
    got = _seek(db, index, f"a = {prefix}")
    want = sorted(((a, b), rid) for rid, (a, b) in enumerate(data)
                  if a == prefix)
    assert got == want
