"""Property tests: an index is its key columns and rids, sorted by
(key columns, rid).

Through any interleaving of INSERT, UPDATE, DELETE and bulk loads, on
single-column and composite indexes at every compression level, each
index's leaf arrays must equal the heap's live rows sorted by
(key columns, rid), and its geometry must count ``table.nrows``
entries. A build aborted by an injected ``index_build`` or
``page_write`` fault must leave the catalog and every index's arrays
exactly as they were.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.errors import StorageError, TransitionError
from repro.faults import PERMANENT, FaultInjector, FaultPlan
from repro.sqlengine import Database, IndexDef
from repro.sqlengine.compression import Compression

SCHEMA = [("a", "INTEGER"), ("b", "INTEGER"), ("c", "TEXT")]
INDEXES = (
    IndexDef("t", ("a",)),
    IndexDef("t", ("a", "b")),
    IndexDef("t", ("b", "a"), Compression.HEAVY),
    IndexDef("t", ("c", "a"), Compression.LIGHT),
)
#: Built only by the aborted-create step, never kept in the catalog.
PROBE = IndexDef("t", ("b", "c"))
DOMAIN = 6   # small domain: many equal keys, so rid order matters

ints = st.integers(0, DOMAIN - 1)
texts = st.sampled_from(["x", "y", "z"])
rows = st.lists(st.tuples(ints, ints, texts), min_size=1, max_size=12)
faults = st.one_of(st.tuples(st.just("index_build"), st.integers(0, 4)),
                   st.tuples(st.just("page_write"), st.integers(0, 40)))
steps = st.one_of(
    st.tuples(st.just("insert"), st.tuples(ints, ints, texts)),
    st.tuples(st.just("update"), st.sampled_from(["a", "b"]), ints,
              st.sampled_from(["a", "b"]), ints),
    st.tuples(st.just("delete"), st.sampled_from(["a", "b"]), ints),
    st.tuples(st.just("bulk"), rows),
    st.tuples(st.just("abort_create"), faults),
    st.tuples(st.just("abort_bulk"), rows, faults),
)


def _columns(batch):
    a, b, c = zip(*batch)
    return {"a": np.array(a), "b": np.array(b), "c": np.array(c)}


def _fresh_db(initial):
    db = Database()
    db.create_table("t", SCHEMA)
    db.bulk_load("t", _columns(initial))
    for definition in INDEXES:
        db.create_index(definition)
    return db


def _expected(db, definition):
    """The oracle: live heap rows as Python ``(key..., rid)`` tuples,
    sorted."""
    table = db.table("t")
    columns = [table.column_array(c) for c in definition.columns]
    return sorted(
        tuple(col[rid].item() for col in columns) + (int(rid),)
        for rid in np.nonzero(table.valid_mask())[0])


def _actual(index):
    cols, rids = index.leaf_arrays()
    keys = [cols[c] for c in index.definition.columns]
    return [tuple(key[i].item() for key in keys) + (int(rids[i]),)
            for i in range(len(rids))]


def _check(db):
    nrows = db.table("t").nrows
    for index in db.indexes_by_name.values():
        assert _actual(index) == _expected(db, index.definition)
        assert index.geometry().nrows == nrows
        assert len(index.leaf_arrays()[1]) == nrows


def _snapshot(db):
    return {name: (index, index.leaf_arrays())
            for name, index in db.indexes_by_name.items()}


def _untouched(before):
    """Every snapshotted index still holds the very same arrays."""
    for index, (cols, rids) in before.values():
        now_cols, now_rids = index.leaf_arrays()
        assert now_rids is rids
        assert all(now_cols[c] is cols[c] for c in cols)


def _with_fault(db, fault, action):
    site, at_call = fault
    db.set_fault_injector(FaultInjector(
        FaultPlan.single_shot(site, at_call, kind=PERMANENT), seed=0))
    try:
        action()
    finally:
        db.set_fault_injector(None)


def _run(db, step):
    kind = step[0]
    if kind == "insert":
        a, b, c = step[1]
        db.execute(f"INSERT INTO t (a, b, c) VALUES ({a}, {b}, '{c}')")
    elif kind == "update":
        _, column, value, where, match = step
        db.execute(f"UPDATE t SET {column} = {value} "
                   f"WHERE {where} = {match}")
    elif kind == "delete":
        _, where, match = step
        db.execute(f"DELETE FROM t WHERE {where} = {match}")
    elif kind == "bulk":
        db.bulk_load("t", _columns(step[1]))
    elif kind == "abort_create":
        catalog = dict(db.indexes_by_name)
        before = _snapshot(db)
        try:
            _with_fault(db, step[1], lambda: db.create_index(PROBE))
        except TransitionError:
            assert db.indexes_by_name == catalog
            _untouched(before)
        else:   # the build ended before the faulted call
            db.drop_index(PROBE.default_name())
    else:   # abort_bulk
        _, batch, fault = step
        catalog = dict(db.indexes_by_name)
        before = _snapshot(db)
        nrows = db.table("t").nrows
        try:
            _with_fault(db, fault,
                        lambda: db.bulk_load("t", _columns(batch)))
        except TransitionError:
            # The heap load landed; each failed rebuild was dropped
            # with its previous arrays still in place.
            assert db.table("t").nrows == nrows + len(batch)
            assert set(db.indexes_by_name) < set(catalog)
            _untouched({name: before[name] for name in catalog
                        if name not in db.indexes_by_name})
        except StorageError:
            # The heap load itself faulted and un-appended.
            assert db.table("t").nrows == nrows
            assert db.indexes_by_name == catalog
            _untouched(before)
        for definition in INDEXES:   # restore what a failure dropped
            if db.find_index(definition) is None:
                db.create_index(definition)


@given(initial=rows, ops=st.lists(steps, max_size=12))
@settings(max_examples=40, deadline=None)
def test_leaf_arrays_track_the_heap(initial, ops):
    db = _fresh_db(initial)
    _check(db)
    for step in ops:
        _run(db, step)
        _check(db)


def test_equal_keys_come_out_in_rid_order_after_update():
    db = Database()
    db.create_table("t", [("a", "INTEGER"), ("b", "INTEGER")])
    db.bulk_load("t", {"a": [9, 5, 5], "b": [0, 1, 2]})
    index = db.create_index(IndexDef("t", ("a",)))
    db.execute("UPDATE t SET a = 5 WHERE b = 0")
    cols, rids = index.leaf_arrays()
    assert cols["a"].tolist() == [5, 5, 5]
    assert rids.tolist() == [0, 1, 2]


def test_index_build_fires_once_per_chunk():
    """The ``index_build`` site fires at entry and once per 54 sorted
    entries, so fault plans replay call for call."""
    for n, calls in ((0, 1), (1, 2), (54, 2), (55, 3), (200, 5)):
        db = Database()
        db.create_table("t", [("a", "INTEGER")])
        db.bulk_load("t", {"a": np.arange(n)})
        injector = FaultInjector(FaultPlan(), seed=0)
        db.set_fault_injector(injector)
        db.create_index(IndexDef("t", ("a",)))
        assert injector.calls["index_build"] == calls, n
