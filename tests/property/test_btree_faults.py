"""Property tests: an index's leaf-level invariants hold through
randomized interleaved inserts, deletes, and *fault-aborted* bulk
loads — a load whose index rebuild dies must leave that index's
sorted arrays exactly as they were."""

from hypothesis import given, settings, strategies as st

from repro.errors import TransitionError
from repro.faults import PERMANENT, FaultInjector, FaultPlan
from repro.sqlengine import Database, IndexDef

KEY = IndexDef("t", ("k",))

keys = st.integers(min_value=0, max_value=150)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), keys),
        st.tuples(st.just("delete"), keys),
        st.tuples(st.just("abort_load"),
                  st.integers(min_value=0, max_value=5)),
    ),
    max_size=200)


def _contents(index):
    """The leaf level as Python ``(key, rid)`` pairs, in order."""
    cols, rids = index.leaf_arrays()
    return list(zip(cols["k"].tolist(), rids.tolist()))


def _check_invariants(index):
    """Strictly ascending by (key, rid), one entry per live heap row,
    and geometry over the heap's row count."""
    entries = _contents(index)
    assert all(a < b for a, b in zip(entries, entries[1:]))
    table = index.table
    assert sorted(r for _, r in entries) == table.live_rids().tolist()
    assert index.geometry().nrows == table.nrows == len(entries)


def _faulted_load(db, rows, fail_at):
    """Bulk-load ``(k, id)`` rows while the ``fail_at``-th
    ``index_build`` call raises a permanent fault."""
    db.set_fault_injector(FaultInjector(
        FaultPlan.single_shot("index_build", fail_at, kind=PERMANENT),
        seed=0))
    try:
        db.bulk_load("t", {"k": [k for k, _ in rows],
                           "id": [i for _, i in rows]})
    finally:
        db.set_fault_injector(None)


def _same_arrays(index, arrays):
    cols, rids = index.leaf_arrays()
    return rids is arrays[1] and cols["k"] is arrays[0]["k"]


@given(ops=ops)
@settings(max_examples=60, deadline=None)
def test_invariants_hold_through_faulted_sequences(ops):
    db = Database()
    db.create_table("t", [("k", "INTEGER"), ("id", "INTEGER")])
    index = db.create_index(KEY)
    rid = 0
    for op, arg in ops:
        if op == "insert":
            db.execute(f"INSERT INTO t (k, id) VALUES ({arg}, {rid})")
            rid += 1
        elif op == "delete":
            victims = [r for k, r in _contents(index) if k == arg]
            if victims:
                db.execute(f"DELETE FROM t WHERE id = {min(victims)}")
        else:  # abort_load
            before = _contents(index)
            arrays = index.leaf_arrays()
            # A load of fresh rows whose rebuild dies on call `arg`.
            rows = [(k, rid + k) for k in range(30)]
            rid += len(rows)
            try:
                _faulted_load(db, rows, arg)
            except TransitionError:
                # Aborted path: the rebuild left the index's arrays
                # untouched and the catalog dropped it; re-create it
                # so the interleaving goes on over the loaded heap.
                assert db.find_index(KEY) is None
                assert _same_arrays(index, arrays)
                assert _contents(index) == before
                index = db.create_index(KEY)
            else:
                # The fault never fired (too few chunks): the rebuild
                # holds the old entries and the new rows.
                assert db.find_index(KEY) is index
                assert set(before) < set(_contents(index))
        _check_invariants(index)
    # Final sweep: contents are sorted and duplicates preserved.
    items = _contents(index)
    assert items == sorted(items)
    assert len(items) == db.table("t").nrows


@given(fail_at=st.integers(min_value=0, max_value=10))
@settings(max_examples=30, deadline=None)
def test_aborted_bulk_load_leaves_tree_untouched(fail_at):
    db = Database()
    db.create_table("t", [("k", "INTEGER"), ("id", "INTEGER")])
    db.bulk_load("t", {"k": list(range(40)), "id": list(range(40))})
    index = db.create_index(KEY)
    before = _contents(index)
    arrays = index.leaf_arrays()
    rows = [(-k, 40 + k) for k in range(60)]
    try:
        _faulted_load(db, rows, fail_at)
    except TransitionError:
        assert db.find_index(KEY) is None
        assert _same_arrays(index, arrays)
        assert _contents(index) == before
        # The heap load itself landed: a fresh build holds every row.
        rebuilt = db.create_index(KEY)
        assert len(_contents(rebuilt)) == 100
        _check_invariants(rebuilt)
    else:
        assert _contents(index) == sorted(
            (k, rid) for rid, k in
            enumerate(list(range(40)) + [k for k, _ in rows]))
        _check_invariants(index)
