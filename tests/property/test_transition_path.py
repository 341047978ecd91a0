"""``apply_configuration`` runs through ``Database.transition``.

The catalog-step executor replaced a loop of its own inside
``apply_configuration``; that must not show. ``reference`` below is
that loop written out: sorted drops, then sorted creates, metered
over the whole run, with the partial metering attached when a build
fails. On twin databases, from random current and target designs over
indexes, a view and a compressed variant, and optionally under a
permanent build fault at call ``m``, both must land the same catalog,
run the same steps in the same order, meter ``==`` units, and raise
the same error with the same partial metering.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.structures import Compression
from repro.errors import TransitionError
from repro.faults import PERMANENT, FaultInjector, FaultPlan, FaultSpec
from repro.sqlengine import Database, IndexDef, MeteredCost, ViewDef
from repro.sqlengine.index import structure_sort_key

STRUCTURES = (IndexDef("t", ("a",)), IndexDef("t", ("b",)),
              IndexDef("t", ("a", "b")), ViewDef("t", ("a", "b")),
              IndexDef("t", ("a",), Compression.HEAVY))


def reference(db, config):
    """Returns ``(steps, metered)``; a failed build raises with
    ``exc.reference`` set to the partial ``(steps, metered)``."""
    target, current = frozenset(config), db.current_configuration()
    before = db.buffer_manager.snapshot()
    steps, drop_units = [], 0.0

    def metered():
        delta = db.buffer_manager.snapshot() - before
        return MeteredCost(page_reads=float(delta.logical_reads),
                           page_writes=float(delta.physical_writes),
                           cpu_units=drop_units + delta.latency_units)

    for d in sorted(current - target, key=structure_sort_key):
        if isinstance(d, ViewDef):
            db.drop_view(db.find_view(d).name)
        else:
            db.drop_index(db.find_index(d).name)
        steps.append(("drop", d))
        drop_units += db.params.drop_index_cost
    for d in sorted(target - current, key=structure_sort_key):
        try:
            (db.create_view if isinstance(d, ViewDef)
             else db.create_index)(d)
        except TransitionError as exc:
            exc.reference = (steps, metered())
            raise
        steps.append(("create", d))
    return steps, metered()


def _twin(current):
    rng = np.random.default_rng(5)
    db = Database()
    db.create_table("t", [("a", "INTEGER"), ("b", "INTEGER")])
    db.bulk_load("t", {"a": rng.integers(0, 100, 500),
                       "b": rng.integers(0, 100, 500)})
    db.apply_configuration(current)
    return db


def _run(apply, db, target, fault):
    if fault is not None:
        site, call = fault
        db.set_fault_injector(FaultInjector(FaultPlan(specs=(
            FaultSpec(site, PERMANENT, at_call=call),)), seed=0))
    try:
        return apply(db, target), None
    except TransitionError as exc:
        return None, exc
    finally:
        db.set_fault_injector(None)


designs = st.frozensets(st.sampled_from(STRUCTURES))
faults = st.none() | st.tuples(
    st.sampled_from(("index_build", "view_build")),
    st.integers(0, 40))


@settings(max_examples=150, deadline=None)
@given(current=designs, target=designs, fault=faults)
def test_apply_configuration_matches_the_reference_loop(
        current, target, fault):
    expected_db, actual_db = _twin(current), _twin(current)
    expected, expected_exc = _run(reference, expected_db, target, fault)
    report, exc = _run(Database.apply_configuration, actual_db, target,
                       fault)
    assert actual_db.current_configuration() == \
        expected_db.current_configuration()
    if expected_exc is not None:
        assert exc is not None and report is None
        assert (type(exc), str(exc), exc.structure) == \
            (type(expected_exc), str(expected_exc),
             expected_exc.structure)
        expected = expected_exc.reference
        report = exc.report
        assert not report.completed
    else:
        assert exc is None and report.completed
    steps, metered = expected
    assert report.executed == steps
    assert not report.skipped
    assert report.metered == metered
    assert report.units(actual_db.params) == \
        metered.total(expected_db.params)
