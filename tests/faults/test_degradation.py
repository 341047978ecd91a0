"""Graceful degradation of cost estimation under injected faults.

The ladder: exact (with transparent transient retries) -> stale epoch
cache -> heap-scan upper bound. A degraded estimate is counted, cached
separately, and never promoted into the exact caches.
"""

import numpy as np
import pytest

from repro.core.costservice import CostService
from repro.core.structures import Configuration, EMPTY_CONFIGURATION
from repro.faults import (PERMANENT, TRANSIENT, FaultInjector,
                          FaultPlan, FaultSpec)
from repro.sqlengine.database import Database
from repro.sqlengine.index import IndexDef
from repro.workload.model import Statement
from repro.workload.segmentation import Segment


def _database():
    rng = np.random.default_rng(5)
    db = Database()
    db.create_table("t", [("a", "INTEGER"), ("b", "INTEGER")])
    db.bulk_load("t", {"a": rng.integers(0, 100, 2000),
                       "b": rng.integers(0, 100, 2000)})
    return db


def _segment(sql="SELECT a FROM t WHERE a = 3"):
    return Segment((Statement(sql),), start=0)


def _injector(kind, probability=1.0, max_faults=None, seed=0):
    return FaultInjector(
        FaultPlan(specs=(FaultSpec("estimate", kind,
                                   probability=probability,
                                   max_faults=max_faults),)),
        seed=seed)


def test_transient_faults_are_retried_to_exact_values():
    clean = CostService(_database().what_if())
    expected = clean.exec_cost(_segment(), EMPTY_CONFIGURATION)

    faulty = CostService(_database().what_if())
    faulty.optimizer.fault_injector = _injector(TRANSIENT,
                                                max_faults=1)
    actual = faulty.exec_cost(_segment(), EMPTY_CONFIGURATION)
    assert actual == expected
    assert faulty.stats.estimate_faults == 1
    assert faulty.stats.estimate_retries == 1
    assert faulty.stats.degraded_estimates == 0


def test_permanent_fault_falls_back_to_upper_bound():
    clean = CostService(_database().what_if())
    exact = clean.exec_cost(_segment(), EMPTY_CONFIGURATION)

    faulty = CostService(_database().what_if())
    faulty.optimizer.fault_injector = _injector(PERMANENT)
    degraded = faulty.exec_cost(_segment(), EMPTY_CONFIGURATION)
    assert faulty.stats.degraded_estimates == 1
    assert faulty.stats.upper_bound_fallbacks == 1
    assert faulty.stats.stale_fallbacks == 0
    # The heap-scan bound is an upper bound on the exact estimate.
    assert degraded >= exact


def test_stale_epoch_cache_preferred_over_upper_bound():
    service = CostService(_database().what_if())
    exact = service.exec_cost(_segment(), EMPTY_CONFIGURATION)
    # Invalidation moves the exact values into the stale-epoch cache.
    service.invalidate()
    service.optimizer.fault_injector = _injector(PERMANENT)
    degraded = service.exec_cost(_segment(), EMPTY_CONFIGURATION)
    assert degraded == exact
    assert service.stats.stale_fallbacks == 1
    assert service.stats.upper_bound_fallbacks == 0
    assert service.stats.degraded_estimates == 1


def test_degraded_values_never_promoted_to_exact():
    """Once the fault clears, the service recovers the exact value —
    the degraded answer was never cached as exact."""
    clean = CostService(_database().what_if())
    exact = clean.exec_cost(_segment(), EMPTY_CONFIGURATION)

    service = CostService(_database().what_if())
    service.optimizer.fault_injector = _injector(PERMANENT,
                                                 max_faults=1)
    degraded = service.exec_cost(_segment(), EMPTY_CONFIGURATION)
    assert service.stats.degraded_estimates == 1
    # Fault budget exhausted: the next request retries exact
    # estimation and succeeds.
    recovered = service.exec_cost(_segment(), EMPTY_CONFIGURATION)
    assert recovered == exact
    assert recovered <= degraded


def test_degraded_serves_are_deterministic_while_faulted():
    service = CostService(_database().what_if())
    service.optimizer.fault_injector = _injector(PERMANENT)
    first = service.exec_cost(_segment(), EMPTY_CONFIGURATION)
    second = service.exec_cost(_segment(), EMPTY_CONFIGURATION)
    assert first == second
    assert service.stats.degraded_estimates == 2
    # The degraded cache answered the repeat without a second
    # upper-bound computation.
    assert service.stats.upper_bound_fallbacks == 1


def test_exec_matrix_survives_partial_degradation():
    db = _database()
    service = CostService(db.what_if())
    segments = [_segment("SELECT a FROM t WHERE a = 1"),
                _segment("SELECT b FROM t WHERE b = 2")]
    configs = [EMPTY_CONFIGURATION,
               Configuration({IndexDef("t", ("a",))})]
    clean = service.exec_matrix(segments, configs)

    faulty = CostService(_database().what_if())
    faulty.optimizer.fault_injector = _injector(PERMANENT,
                                                probability=0.5,
                                                seed=3)
    matrix = faulty.exec_matrix(segments, configs)
    assert matrix.shape == clean.shape
    assert np.all(matrix >= 0)
    if faulty.stats.degraded_estimates:
        # Degraded cells are upper bounds on the exact values.
        assert np.all(matrix >= clean - 1e-9)


def test_degraded_groups_stay_out_of_the_exact_tiers():
    """A degraded answer fills its signature group for one batch only:
    neither exact tier keeps it, and once the faults clear the next
    fill re-issues exactly the degraded group."""
    segments = [_segment("SELECT a FROM t WHERE a = 1"),
                _segment("SELECT b FROM t WHERE b = 2")]
    index_a = Configuration({IndexDef("t", ("a",))})
    index_b = Configuration({IndexDef("t", ("b",))})
    configs = [EMPTY_CONFIGURATION, index_a, index_b,
               index_a.with_index(IndexDef("t", ("b",)))]
    clean = CostService(_database().what_if())
    expected = clean.exec_matrix(segments, configs)

    service = CostService(_database().what_if())
    service.exec_matrix(segments, configs[:2])
    service.optimizer.fault_injector = _injector(PERMANENT)
    avoided = service.stats.whatif_calls_avoided
    degraded = service.exec_matrix(segments, configs)
    # The a-query's new columns share known signatures; the b-query's
    # two I(b) columns are one new group, and that group degrades.
    assert service.stats.signature_hits == 2
    assert service.stats.degraded_estimates == 1
    assert service.stats.whatif_calls_avoided - avoided == 8 - 2
    assert np.array_equal(degraded[:, :2], expected[:, :2])
    assert np.array_equal(degraded[0], expected[0])
    assert np.all(degraded[1, 2:] > expected[1, 2:])
    assert sum(map(len, service._template_units.values())) == 8 - 2
    assert sum(map(len, service._signature_units.values())) == 3
    for tier, reference in ((service._template_units,
                             clean._template_units),
                            (service._signature_units,
                             clean._signature_units)):
        for key, row in tier.items():
            assert all(reference[key][cell] == value
                       for cell, value in row.items())

    service.optimizer.fault_injector = None
    calls = service.stats.whatif_calls
    recovered = service.exec_matrix(segments, configs)
    assert service.stats.whatif_calls - calls == 1
    assert np.array_equal(recovered, expected)
    assert service._template_units == clean._template_units
    assert service._signature_units == clean._signature_units


def test_fault_free_service_reports_no_degradation():
    service = CostService(_database().what_if())
    service.exec_cost(_segment(), EMPTY_CONFIGURATION)
    stats = service.stats
    assert stats.estimate_faults == 0
    assert stats.estimate_retries == 0
    assert stats.degraded_estimates == 0
    assert stats.stale_fallbacks == 0
    assert stats.upper_bound_fallbacks == 0
