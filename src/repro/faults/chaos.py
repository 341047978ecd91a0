"""The ``faultresilience`` verify family (family 6).

Replays engine and solver fixtures under injected fault plans and
asserts the recovery contracts that :mod:`repro.faults` promises:

* **catalog atomicity** — a fault injected at *every possible step*
  of an index/view build leaves the catalog, the object-id cursor and
  the data-plane :class:`~repro.sqlengine.buffer.IoMetrics` exactly in
  the pre-build state, with exactly one rollback booked on the fault
  plane.
* **transient convergence (engine)** — a workload replayed under a
  transient-only fault plan produces the same rows and the same
  data-plane I/O counters as the fault-free twin run (retries and
  backoff land only on the fault plane).
* **transient convergence (advisor)** — with transient-only estimate
  faults, the advisor's recommendation (cost and design sequence) is
  bit-identical to the fault-free run, and nothing was served
  degraded.
* **graceful degradation** — under permanent estimate faults the
  advisor still recommends (upper-bound/stale fallbacks engaged,
  degradation counters surfaced in ``Recommendation.stats``) and the
  online tuner defers instead of crashing.

Everything is deterministic in the seed; ``repro chaos --seed S``
produces identical findings across runs.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core.advisor import ConstrainedGraphAdvisor
from ..core.bandit import BanditTuner, ReactiveRule, default_arms
from ..errors import ReproError, TransitionError
from ..sqlengine.database import CREATE, DROP, Database
from ..sqlengine.index import IndexDef
from ..sqlengine.views import ViewDef
from ..verify.report import CheckResult
from .injector import (FaultInjector, FaultPlan, FaultSpec, TRANSIENT,
                       PERMANENT)

#: Structures the atomicity sweep builds (index, composite index,
#: view — covering both build paths).
SWEEP_STRUCTURES = (IndexDef("t", ("a",)), IndexDef("t", ("a", "b")),
                    ViewDef("t", ("b", "c")))

FAMILY_DESCRIPTION = ("catalog/buffer/metrics atomicity under injected "
                      "faults; transient-only plans converge to the "
                      "fault-free run; degraded estimation never "
                      "crashes the advisors")


def chaos_database(seed: int, nrows: int = 1200,
                   columns: Tuple[str, ...] = ("a", "b", "c"),
                   value_range: Tuple[int, int] = (0, 100)) -> Database:
    """A small populated database for fault-injection fixtures.

    The defaults are the family-6 fixture; the adversarial scenario
    library (:mod:`repro.faults.scenarios`) reuses it with the paper's
    four columns and value domain.
    """
    rng = np.random.default_rng(seed)
    db = Database()
    db.create_table("t", [(column, "INTEGER") for column in columns])
    lo, hi = value_range
    db.bulk_load("t", {column: rng.integers(lo, hi, nrows)
                       for column in columns})
    return db


def _catalog_state(db: Database) -> Tuple:
    return (frozenset(db.indexes_by_name),
            frozenset(db.views_by_name))


def _count_build_calls(db: Database, definition, seed: int):
    """Run one clean build under a never-firing injector to count the
    injector calls per site, then restore the database exactly."""
    checkpoint = db.buffer_manager.save_state()
    counter = FaultInjector(FaultPlan.none(), seed)
    db.set_fault_injector(counter)
    try:
        db.transition([(CREATE, definition)])
    finally:
        db.set_fault_injector(None)
    delta = db.buffer_manager.metrics - checkpoint.metrics
    db.transition([(DROP, definition)])
    db.buffer_manager.restore_state(checkpoint)
    return dict(counter.calls), delta


def check_atomic_transitions(result: CheckResult, seed: int,
                             quick: bool = False,
                             stride: Optional[int] = None) -> None:
    """Inject a permanent fault at every injector call of every build
    site and assert exact pre-build state after rollback; then verify
    a transient fault at the first call of each site converges to the
    clean build."""
    db = chaos_database(seed)
    build_site = {True: "view_build", False: "index_build"}
    for definition in SWEEP_STRUCTURES:
        label = definition.label
        calls, clean_delta = _count_build_calls(db, definition, seed)
        sites = ("page_read", "page_write",
                 build_site[isinstance(definition, ViewDef)])
        for site in sites:
            n_calls = calls.get(site, 0)
            if not result.check(
                    n_calls > 0, f"{label} {site}",
                    f"expected {site} injector calls during the build "
                    f"of {label}, saw none"):
                continue
            step = stride if stride is not None else \
                (max(1, n_calls // 8) if quick else 1)
            for call in range(0, n_calls, step):
                _assert_rollback_exact(result, db, definition, site,
                                       call, seed)
            _assert_transient_converges(result, db, definition, site,
                                        clean_delta, seed)


def _assert_rollback_exact(result: CheckResult, db: Database,
                           definition, site: str, call: int,
                           seed: int) -> None:
    instance = f"{definition.label} {site}@{call}"
    catalog_before = _catalog_state(db)
    metrics_before = db.buffer_manager.metrics.copy()
    next_id_before = db.buffer_manager._next_object_id
    injector = FaultInjector(FaultPlan.single_shot(site, call), seed)
    db.set_fault_injector(injector)
    raised = False
    try:
        db.transition([(CREATE, definition)])
    except TransitionError:
        raised = True
    finally:
        db.set_fault_injector(None)
    metrics_after = db.buffer_manager.metrics
    result.check(raised, instance,
                 "permanent mid-build fault did not surface as "
                 "TransitionError")
    if not raised:
        # The structure was built; clean up so later steps start from
        # the same state.
        db.transition([(DROP, definition)])
        return
    result.check(_catalog_state(db) == catalog_before, instance,
                 "catalog changed across a rolled-back build")
    result.check(db.buffer_manager._next_object_id == next_id_before,
                 instance,
                 "object-id cursor moved across a rolled-back build")
    result.check(
        metrics_after.io_equal(metrics_before), instance,
        f"data-plane IoMetrics moved across a rolled-back build: "
        f"{metrics_before} -> {metrics_after}")
    result.check(
        metrics_after.rollbacks == metrics_before.rollbacks + 1,
        instance,
        f"expected exactly one rollback booked, "
        f"{metrics_before.rollbacks} -> {metrics_after.rollbacks}")


def _assert_transient_converges(result: CheckResult, db: Database,
                                definition, site: str, clean_delta,
                                seed: int) -> None:
    """A single transient fault must be retried away: the build
    completes and charges exactly the clean build's data-plane I/O."""
    instance = f"{definition.label} {site} transient"
    checkpoint = db.buffer_manager.save_state()
    injector = FaultInjector(
        FaultPlan.single_shot(site, 0, kind=TRANSIENT), seed)
    db.set_fault_injector(injector)
    try:
        db.transition([(CREATE, definition)])
    except ReproError as exc:
        result.failed(instance,
                      f"transient fault was not retried away: {exc!r}")
        db.set_fault_injector(None)
        db.buffer_manager.restore_state(checkpoint)
        return
    finally:
        db.set_fault_injector(None)
    delta = db.buffer_manager.metrics - checkpoint.metrics
    result.check(injector.stats.transient > 0, instance,
                 "transient fault never fired")
    result.check(delta.io_equal(clean_delta), instance,
                 f"data-plane build cost diverged from the fault-free "
                 f"build: {clean_delta} vs {delta}")
    db.transition([(DROP, definition)])
    db.buffer_manager.restore_state(checkpoint)


def _chaos_statements(seed: int, count: int) -> List[str]:
    rng = np.random.default_rng(seed + 77)
    statements = []
    for _ in range(count):
        kind = rng.integers(0, 4)
        a = int(rng.integers(0, 100))
        b = int(rng.integers(0, 100))
        if kind == 0:
            statements.append(f"SELECT a, b FROM t WHERE a = {a}")
        elif kind == 1:
            statements.append(
                f"SELECT c FROM t WHERE b >= {min(a, b)} "
                f"AND b <= {max(a, b)}")
        elif kind == 2:
            statements.append(
                f"INSERT INTO t (a, b, c) VALUES ({a}, {b}, 1)")
        else:
            statements.append(f"UPDATE t SET c = {b} WHERE a = {a}")
    return statements


def check_engine_convergence(result: CheckResult, seed: int,
                             plan: FaultPlan,
                             quick: bool = False) -> None:
    """Replay one workload on twin databases — one fault-free, one
    under a transient-only plan — and assert identical rows and
    identical data-plane I/O."""
    instance = f"engine[seed={seed}] plan={plan.label}"
    if not result.check(plan.transient_only, instance,
                        "engine convergence requires a transient-only "
                        "plan"):
        return
    nrows = 800 if quick else 1500
    clean = chaos_database(seed, nrows=nrows)
    faulty = chaos_database(seed, nrows=nrows)
    faulty.set_fault_injector(FaultInjector(plan, seed))
    statements = _chaos_statements(seed, 12 if quick else 30)
    definition = IndexDef("t", ("a",))
    clean_before = clean.buffer_manager.snapshot()
    faulty_before = faulty.buffer_manager.snapshot()
    try:
        clean.create_index(definition)
        faulty.create_index(definition)
        for sql in statements:
            expected = clean.execute(sql)
            actual = faulty.execute(sql)
            result.check(expected.rows == actual.rows,
                         f"{instance} {sql!r}",
                         f"rows diverged under transient faults: "
                         f"{expected.rows[:3]} vs {actual.rows[:3]}")
    except ReproError as exc:
        result.failed(instance,
                      f"transient-only replay crashed: {exc!r}")
        faulty.set_fault_injector(None)
        return
    faulty.set_fault_injector(None)
    clean_delta = clean.buffer_manager.snapshot() - clean_before
    faulty_delta = faulty.buffer_manager.snapshot() - faulty_before
    result.check(
        faulty_delta.io_equal(clean_delta), instance,
        f"data-plane I/O diverged from the fault-free twin: "
        f"{clean_delta} vs {faulty_delta}")
    result.check(faulty_delta.latency_units >= 0.0, instance,
                 "negative latency charged")
    injector_fired = faulty.buffer_manager.metrics.retries > 0 or \
        faulty_delta.latency_units > 0
    result.check(
        faulty_delta.retries == 0 or injector_fired, instance,
        "retries booked without latency accounting")


def _estimate_injector(seed: int, kind: str,
                       probability: float) -> FaultInjector:
    plan = FaultPlan(specs=(FaultSpec("estimate", kind,
                                      probability=probability),),
                     label=f"{kind}_estimates")
    return FaultInjector(plan, seed)


def check_recommendation_convergence(result: CheckResult, seed: int,
                                     quick: bool = False) -> None:
    """Transient-only estimate faults must not change the advisor's
    recommendation by a single bit."""
    from ..verify.generators import random_trace_problem
    instance = f"advisor[seed={seed}]"
    nrows = 1500 if quick else 4000
    kwargs = dict(nrows=nrows, n_blocks=3, block_size=20)
    baseline_trace = random_trace_problem(seed, **kwargs)
    advisor = ConstrainedGraphAdvisor(k=baseline_trace.problem.k,
                                      count_initial_change=False)
    baseline = advisor.recommend(baseline_trace.problem,
                                 baseline_trace.service)

    faulty_trace = random_trace_problem(seed, **kwargs)
    injector = _estimate_injector(seed + 1, TRANSIENT,
                                  probability=0.15)
    faulty_trace.service.optimizer.fault_injector = injector
    try:
        faulty = advisor.recommend(faulty_trace.problem,
                                   faulty_trace.service)
    except ReproError as exc:
        result.failed(instance,
                      f"transient estimate faults crashed the "
                      f"advisor: {exc!r}")
        return
    result.check(injector.stats.transient > 0, instance,
                 "no transient estimate fault fired (check is vacuous)")
    result.check(
        faulty_trace.service.stats.estimate_retries > 0, instance,
        "estimate faults fired but no retries were booked")
    result.check(
        faulty_trace.service.stats.degraded_estimates == 0, instance,
        "transient-only faults must be retried away, never degraded")
    result.check(
        faulty.cost == baseline.cost, instance,
        f"recommendation cost diverged under transient estimate "
        f"faults: {baseline.cost!r} vs {faulty.cost!r}")
    result.check(
        faulty.design == baseline.design, instance,
        "recommended design sequence diverged under transient "
        "estimate faults")


def check_degradation(result: CheckResult, seed: int,
                      quick: bool = False) -> None:
    """Permanent estimate faults: the advisor must degrade (stale or
    upper-bound estimates, surfaced in its stats), and the online
    tuner must defer design changes rather than crash."""
    from ..verify.generators import random_trace_problem
    instance = f"degraded[seed={seed}]"
    nrows = 1500 if quick else 4000
    trace = random_trace_problem(seed, nrows=nrows, n_blocks=3,
                                 block_size=20)
    injector = _estimate_injector(seed + 2, PERMANENT,
                                  probability=0.3)
    trace.service.optimizer.fault_injector = injector
    advisor = ConstrainedGraphAdvisor(k=trace.problem.k,
                                      count_initial_change=False)
    try:
        recommendation = advisor.recommend(trace.problem,
                                           trace.service)
    except ReproError as exc:
        result.failed(instance,
                      f"advisor crashed instead of degrading: {exc!r}")
        return
    stats = trace.service.stats
    result.check(stats.degraded_estimates > 0, instance,
                 "no estimate was served degraded (check is vacuous)")
    result.check(
        stats.stale_fallbacks + stats.upper_bound_fallbacks > 0,
        instance, "degraded estimates resolved through no ladder rung")
    costing = recommendation.costing
    result.check(
        costing is not None and
        int(costing.get("degraded_estimates", 0)) > 0, instance,
        "degradation not surfaced in Recommendation.stats['costing']")

    candidates = sorted(
        {d for config in trace.problem.configurations
         for d in config.structures})
    degraded_before = trace.service.stats.degraded_estimates
    tuner = BanditTuner(default_arms(candidates), trace.service,
                        gate=ReactiveRule(cooldown=5), decay=0.95,
                        observe_every=1)
    statements = list(trace.workload.statements)[:30]
    try:
        outcome = tuner.run(statements)
    except ReproError as exc:
        result.failed(instance,
                      f"online tuner crashed instead of deferring: "
                      f"{exc!r}")
        return
    degraded_moved = \
        trace.service.stats.degraded_estimates > degraded_before
    result.check(
        not degraded_moved or outcome.deferrals > 0, instance,
        "estimates were served degraded during the run but the tuner "
        "never deferred")
