"""Atomic design transitions: a mid-build fault must leave catalog,
object-id cursor, and data-plane metrics exactly as before the build."""

import numpy as np
import pytest

from repro.errors import (PermanentStorageError, StorageError,
                          TransitionError, TypeMismatchError)
from repro.faults import (PERMANENT, TRANSIENT, FaultInjector,
                          FaultPlan, FaultSpec, RetryPolicy)
from repro.sqlengine.database import Database
from repro.sqlengine.index import IndexDef
from repro.sqlengine.views import ViewDef


@pytest.fixture
def db():
    rng = np.random.default_rng(11)
    database = Database()
    database.create_table("t", [("a", "INTEGER"), ("b", "INTEGER")])
    database.bulk_load("t", {"a": rng.integers(0, 50, 600),
                             "b": rng.integers(0, 50, 600)})
    return database


def _state(db):
    return (frozenset(db.indexes_by_name),
            frozenset(db.views_by_name),
            db.buffer_manager._next_object_id,
            (db.buffer_manager.metrics.logical_reads,
             db.buffer_manager.metrics.physical_writes))


def _count_calls(db, build, site):
    counter = FaultInjector(FaultPlan.none(), seed=0)
    checkpoint = db.buffer_manager.save_state()
    db.set_fault_injector(counter)
    try:
        name = build()
    finally:
        db.set_fault_injector(None)
    if name in db.indexes_by_name:
        db.drop_index(name)
    else:
        db.drop_view(name)
    db.buffer_manager.restore_state(checkpoint)
    return counter.calls[site]


@pytest.mark.parametrize("site", ["page_read", "page_write",
                                  "index_build"])
def test_every_index_build_step_rolls_back_exactly(db, site):
    definition = IndexDef("t", ("a",))
    n_calls = _count_calls(
        db, lambda: db.create_index(definition).name, site)
    assert n_calls > 0
    for call in range(n_calls):
        before = _state(db)
        rollbacks_before = db.buffer_manager.metrics.rollbacks
        db.set_fault_injector(
            FaultInjector(FaultPlan.single_shot(site, call), seed=0))
        with pytest.raises(TransitionError):
            db.create_index(definition)
        db.set_fault_injector(None)
        assert _state(db) == before, f"state leaked at {site}@{call}"
        assert db.buffer_manager.metrics.rollbacks == \
            rollbacks_before + 1


def test_view_build_rolls_back(db):
    definition = ViewDef("t", ("a", "b"))
    n_calls = _count_calls(
        db, lambda: db.create_view(definition).name, "view_build")
    for call in range(n_calls):
        before = _state(db)
        db.set_fault_injector(FaultInjector(
            FaultPlan.single_shot("view_build", call), seed=0))
        with pytest.raises(TransitionError):
            db.create_view(definition)
        db.set_fault_injector(None)
        assert _state(db) == before


def test_build_rolls_back_with_no_injector_attached(db, monkeypatch):
    """Every build runs checkpointed, not only one under injected
    faults: a storage error the engine raises on its own rolls back
    the same way."""
    manager = db.buffer_manager
    assert manager.fault_injector is None
    write_page, writes = manager.write_page, []

    def failing_write(page_id):
        writes.append(page_id)
        if len(writes) == 3:
            raise StorageError("device full")
        write_page(page_id)

    monkeypatch.setattr(manager, "write_page", failing_write)
    before, metrics = _state(db), manager.metrics.copy()
    with pytest.raises(TransitionError) as info:
        db.create_index(IndexDef("t", ("a",)))
    assert len(writes) == 3 and info.value.attempts == 1
    assert _state(db) == before
    metrics.rollbacks += 1
    assert manager.metrics == metrics


def test_transient_fault_is_retried_to_completion(db):
    definition = IndexDef("t", ("a",))
    clean_before = db.buffer_manager.save_state()
    db.create_index(definition)
    clean_delta = db.buffer_manager.metrics - clean_before.metrics
    db.drop_index(db.find_index(definition).name)
    db.buffer_manager.restore_state(clean_before)

    db.set_fault_injector(FaultInjector(
        FaultPlan.single_shot("index_build", 0, kind=TRANSIENT),
        seed=0))
    checkpoint = db.buffer_manager.save_state()
    db.create_index(definition)
    db.set_fault_injector(None)
    delta = db.buffer_manager.metrics - checkpoint.metrics
    assert db.find_index(definition) is not None
    # Data-plane cost identical to the fault-free build; the retry
    # shows up only on the fault plane.
    assert delta.io_equal(clean_delta)
    assert db.buffer_manager.metrics.retries >= 1
    assert db.buffer_manager.metrics.rollbacks >= 1
    assert db.buffer_manager.metrics.latency_units > 0


def test_retry_policy_bounds_attempts(db):
    db.retry_policy = RetryPolicy(max_attempts=2)
    definition = IndexDef("t", ("a",))
    # Transient at every index_build call: each attempt fails.
    db.set_fault_injector(FaultInjector(
        FaultPlan(specs=(FaultSpec("index_build", TRANSIENT,
                                   probability=1.0),)), seed=0))
    with pytest.raises(TransitionError) as info:
        db.create_index(definition)
    db.set_fault_injector(None)
    assert info.value.attempts == 2
    assert definition not in [
        ix.definition for ix in db.indexes_by_name.values()]


def test_failed_build_then_clean_build_is_bit_identical(db):
    """A rolled-back attempt must not perturb a later clean build."""
    definition = IndexDef("t", ("a",))
    twin = Database()
    rng = np.random.default_rng(11)
    twin.create_table("t", [("a", "INTEGER"), ("b", "INTEGER")])
    twin.bulk_load("t", {"a": rng.integers(0, 50, 600),
                         "b": rng.integers(0, 50, 600)})
    twin.create_index(definition)

    db.set_fault_injector(FaultInjector(
        FaultPlan.single_shot("page_read", 1, kind=PERMANENT),
        seed=0))
    with pytest.raises(TransitionError):
        db.create_index(definition)
    db.set_fault_injector(None)
    db.create_index(definition)

    q = "SELECT a, b FROM t WHERE a = 7"
    assert db.execute(q).rows == twin.execute(q).rows
    ours = db.find_index(definition)
    theirs = twin.find_index(definition)
    ours_cols, ours_rids = ours.leaf_arrays()
    theirs_cols, theirs_rids = theirs.leaf_arrays()
    assert np.array_equal(ours_rids, theirs_rids)
    assert np.array_equal(ours_cols["a"], theirs_cols["a"])
    assert ours.geometry() == theirs.geometry()


class TestDeployStepSite:
    """The ``deploy_step`` fault site: crash a deployment *between*
    its atomic actions, then resume past everything that landed."""

    def _plan(self, db):
        from repro.core.costservice import CostService
        from repro.core.deployment import schedule_deployment
        from repro.core.structures import (Configuration,
                                           EMPTY_CONFIGURATION)
        target = Configuration({IndexDef("t", ("a",)),
                                IndexDef("t", ("b",))})
        service = CostService(db.what_if())
        return target, schedule_deployment(
            service, EMPTY_CONFIGURATION, target)

    def test_crash_between_steps_is_resumable(self, db):
        from repro.core.deployment import execute_deployment
        from repro.core.structures import Configuration
        target, plan = self._plan(db)
        assert len(plan.steps) == 2

        db.set_fault_injector(FaultInjector(
            FaultPlan.single_shot("deploy_step", 1), seed=0))
        with pytest.raises(TransitionError) as info:
            execute_deployment(db, plan)
        db.set_fault_injector(None)
        partial = info.value.report
        assert not partial.completed
        assert len(partial.executed) == 1
        # The first step's structure landed and survived the crash.
        assert len(db.indexes_by_name) == 1

        report = execute_deployment(db, plan)
        assert report.completed
        assert len(report.skipped) == 1
        assert len(report.executed) == 1
        assert Configuration(db.current_configuration()) == target

    def test_skipped_steps_fire_no_faults(self, db):
        from repro.core.deployment import execute_deployment
        target, plan = self._plan(db)
        execute_deployment(db, plan)
        counter = FaultInjector(FaultPlan.none(), seed=0)
        db.set_fault_injector(counter)
        report = execute_deployment(db, plan)
        db.set_fault_injector(None)
        assert len(report.skipped) == len(plan.steps)
        assert counter.calls["deploy_step"] == 0

    def test_crash_before_first_step_leaves_nothing(self, db):
        from repro.core.deployment import execute_deployment
        _, plan = self._plan(db)
        before = _state(db)
        db.set_fault_injector(FaultInjector(
            FaultPlan.single_shot("deploy_step", 0), seed=0))
        with pytest.raises(TransitionError) as info:
            execute_deployment(db, plan)
        db.set_fault_injector(None)
        assert not info.value.report.executed
        assert _state(db) == before

    def test_apply_configuration_crashes_between_steps(self, db):
        # apply_configuration runs through the same executor, so the
        # site halts it between its creates and a re-run resumes.
        target = {IndexDef("t", ("a",)), IndexDef("t", ("b",))}
        db.set_fault_injector(FaultInjector(
            FaultPlan.single_shot("deploy_step", 1), seed=0))
        with pytest.raises(TransitionError) as info:
            db.apply_configuration(target)
        db.set_fault_injector(None)
        first = ("create", IndexDef("t", ("a",)))
        assert info.value.report.executed == [first]
        assert not info.value.report.completed
        assert db.current_configuration() == frozenset({first[1]})
        report = db.apply_configuration(target)
        assert report.executed == [("create", IndexDef("t", ("b",)))]
        assert db.current_configuration() == frozenset(target)


def test_bulk_load_drops_faulted_indexes_but_keeps_rows(db):
    definition = IndexDef("t", ("a",))
    db.create_index(definition)
    rows_before = db.execute("SELECT a FROM t").rows
    db.retry_policy = RetryPolicy(max_attempts=1)
    db.set_fault_injector(FaultInjector(
        FaultPlan(specs=(FaultSpec("index_build", PERMANENT,
                                   probability=1.0),)), seed=0))
    with pytest.raises(TransitionError):
        db.bulk_load("t", {"a": np.arange(10), "b": np.arange(10)})
    db.set_fault_injector(None)
    # The load itself succeeded; the un-rebuildable index was dropped
    # rather than left stale.
    assert len(db.execute("SELECT a FROM t").rows) == \
        len(rows_before) + 10
    assert db.find_index(definition) is None


class TestFailedHeapWrite:
    """A DML statement whose heap page write fails permanently leaves
    the heap, its row count, the index leaf arrays and an index read
    as they were before the statement."""

    @pytest.fixture
    def small(self):
        database = Database()
        database.create_table("t", [("a", "INTEGER"), ("b", "INTEGER")])
        database.bulk_load("t", {"a": np.arange(10),
                                 "b": np.arange(10)})
        database.create_index(IndexDef("t", ("a",)))
        return database

    QUERIES = ("SELECT a FROM t WHERE a = 99",
               "SELECT a, b FROM t WHERE a = 3",
               "SELECT COUNT(*) FROM t")

    def _snapshot(self, db):
        table = db.table("t")
        cols, rids = db.find_index(IndexDef("t", ("a",))).leaf_arrays()
        return {"nrows": table.nrows,
                "valid": table.valid_mask().tolist(),
                "a": table.column_array("a").tolist(),
                "b": table.column_array("b").tolist(),
                "leaf": (cols["a"].tolist(), rids.tolist()),
                "reads": [db.execute(q).rows for q in self.QUERIES]}

    # The heap's page write is the statement's first, except for a
    # DELETE, which writes the index page before the heap's.
    @pytest.mark.parametrize("sql, heap_write, query, landed", [
        ("INSERT INTO t (a, b) VALUES (99, 1)", 0,
         "SELECT a FROM t WHERE a = 99", [(99,)]),
        ("UPDATE t SET a = 99 WHERE b = 3", 0,
         "SELECT a FROM t WHERE a = 99", [(99,)]),
        ("DELETE FROM t WHERE b = 3", 1, "SELECT COUNT(*) FROM t",
         [(9,)]),
    ], ids=["insert", "update", "delete"])
    def test_statement_leaves_no_trace(self, small, sql, heap_write,
                                       query, landed):
        before = self._snapshot(small)
        small.set_fault_injector(FaultInjector(
            FaultPlan.single_shot("page_write", heap_write), seed=0))
        with pytest.raises(PermanentStorageError):
            small.execute(sql)
        small.set_fault_injector(None)
        assert self._snapshot(small) == before
        # The same statement without the fault lands.
        small.execute(sql)
        assert small.execute(query).rows == landed


class TestFailedMaintenanceWrite:
    """A DML statement whose page write fails permanently at any call —
    heap, index or view — or an INSERT whose later row is rejected
    leaves the heap, its row count, every index's leaf arrays and three
    reads as they were before the statement."""

    STATEMENTS = {
        "insert": "INSERT INTO t (a, b) VALUES (99, 1)",
        "insert_two_rows": "INSERT INTO t (a, b) VALUES (99, 1), (98, 2)",
        "key_update": "UPDATE t SET a = 99 WHERE b = 3",
        "nonkey_update": "UPDATE t SET b = 99 WHERE b = 3",
        "delete": "DELETE FROM t WHERE b = 3",
    }
    QUERIES = ("SELECT a FROM t WHERE a = 99",
               "SELECT a, b FROM t WHERE b = 3",
               "SELECT COUNT(*) FROM t")

    @staticmethod
    def _db():
        database = Database()
        database.create_table("t", [("a", "INTEGER"), ("b", "INTEGER")])
        database.bulk_load("t", {"a": np.arange(10),
                                 "b": np.arange(10)})
        database.create_index(IndexDef("t", ("a",)))
        database.create_view(ViewDef("t", ("a", "b")))
        return database

    def _snapshot(self, db):
        table = db.table("t")
        leaves = []
        for index in db.indexes_for("t"):
            cols, rids = index.leaf_arrays()
            leaves.append(({c: v.tolist() for c, v in cols.items()},
                           rids.tolist()))
        return {"nrows": table.nrows,
                "valid": table.valid_mask().tolist(),
                "a": table.column_array("a").tolist(),
                "b": table.column_array("b").tolist(),
                "leaves": leaves,
                "reads": [db.execute(q).rows for q in self.QUERIES]}

    @pytest.mark.parametrize("kind", sorted(STATEMENTS))
    def test_every_page_write_fault_leaves_no_trace(self, kind):
        sql = self.STATEMENTS[kind]
        counter = FaultInjector(FaultPlan.none(), seed=0)
        clean = self._db()
        clean.set_fault_injector(counter)
        clean.execute(sql)
        n_writes = counter.calls["page_write"]
        # Heap, index and view each write at least one page.
        assert n_writes >= 2 if kind == "nonkey_update" else n_writes >= 3
        for call in range(n_writes):
            db = self._db()
            before = self._snapshot(db)
            db.set_fault_injector(FaultInjector(
                FaultPlan.single_shot("page_write", call), seed=0))
            with pytest.raises(PermanentStorageError):
                db.execute(sql)
            db.set_fault_injector(None)
            assert self._snapshot(db) == before, (kind, call)
            # The same statement without the fault lands as on a
            # database that never saw one.
            db.execute(sql)
            assert self._snapshot(db) == self._snapshot(clean), \
                (kind, call)

    def test_bad_later_row_leaves_no_trace(self):
        db = self._db()
        before = self._snapshot(db)
        with pytest.raises(TypeMismatchError):
            db.execute("INSERT INTO t (a, b) VALUES (99, 1), ('x', 2)")
        assert self._snapshot(db) == before
