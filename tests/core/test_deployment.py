"""Tests for deployment scheduling and execution.

Two layers: scheduler optimality/feasibility against a stub cost
service (so small instances can be brute-forced over every
permutation), and live execution against a real ``Database`` —
landing on the target, resuming a partially-applied plan, and the
crash-safety handoff to ``Database._transition``.
"""

from itertools import permutations

import pytest

from repro.core.costservice import CostService
from repro.core.deployment import (DeploymentPlan, execute_deployment,
                                   schedule_deployment)
from repro.core.structures import (Compression, Configuration,
                                   EMPTY_CONFIGURATION)
from repro.errors import DesignError, InfeasibleProblemError
from repro.sqlengine.database import transition_steps
from repro.sqlengine.index import IndexDef
from repro.sqlengine.views import ViewDef
from repro.workload import (make_paper_workload, paper_generator,
                            segment_by_count)

IA = IndexDef("t", ("a",))
IB = IndexDef("t", ("b",))
IC = IndexDef("t", ("c",))
IAL = IndexDef("t", ("a",), Compression.LIGHT)
VAB = ViewDef("t", ("a", "b"))


class StubOptimizer:
    """Per-structure TRANS and size tables; anchor-independent like
    the real optimizer."""

    def __init__(self, trans, sizes):
        self._trans = trans
        self._sizes = sizes

    def transition_units(self, old_config, new_config):
        old, new = frozenset(old_config), frozenset(new_config)
        units = sum(self._trans[d] for d in new - old)
        units += sum(1.0 for _ in old - new)  # flat drop charge
        return units

    def configuration_size_bytes(self, config):
        return sum(self._sizes[d] for d in frozenset(config))


class StubService:
    """exec_cost driven by a plain function of the structure set."""

    def __init__(self, rate_fn, trans, sizes):
        self._rate_fn = rate_fn
        self.optimizer = StubOptimizer(trans, sizes)

    def exec_cost(self, segment, config):
        return self._rate_fn(config.structures)


def _stub(rate_fn, trans=None, sizes=None, structures=(IA, IB, IC)):
    trans = trans or {d: 10.0 for d in structures}
    sizes = sizes or {d: 100 for d in structures}
    return StubService(rate_fn, trans, sizes)


def _brute_force_total(service, source, actions, trans, segment):
    """Minimum schedule cost over every permutation of the actions."""
    total_trans = sum(trans[a] for a in actions)
    best = float("inf")
    for order in permutations(actions):
        config, exec_units = source, 0.0
        for kind, definition in order:
            exec_units += (service.exec_cost(segment, config) *
                           trans[(kind, definition)] / total_trans)
            config = (config.with_structure(definition)
                      if kind == "create"
                      else config.without_structure(definition))
        best = min(best, total_trans + exec_units)
    return best


class TestScheduler:
    def test_empty_transition_is_an_empty_plan(self):
        service = _stub(lambda s: 100.0)
        plan = schedule_deployment(service, EMPTY_CONFIGURATION,
                                   EMPTY_CONFIGURATION, object())
        assert plan.steps == ()
        assert plan.total_units == 0.0

    def test_steps_cover_the_symmetric_difference_once(self):
        service = _stub(lambda s: 100.0 / (1 + len(s)),
                        trans={IA: 5.0, IB: 7.0, IC: 3.0},
                        sizes={IA: 1, IB: 1, IC: 1})
        source = Configuration({IC})
        target = Configuration({IA, IB})
        plan = schedule_deployment(service, source, target, object())
        labels = sorted(step.label for step in plan.steps)
        assert labels == ["create I(a)", "create I(b)", "drop I(c)"]
        configs = plan.configurations()
        assert configs[0] == source and configs[-1] == target

    def test_exact_matches_brute_force(self):
        # Rates engineered so greedy is tempted by the cheap quick win:
        # IC removes little per unit but is fast; IA removes a lot.
        rates = {
            frozenset(): 90.0,
            frozenset({IA}): 20.0, frozenset({IB}): 70.0,
            frozenset({IC}): 80.0,
            frozenset({IA, IB}): 15.0, frozenset({IA, IC}): 18.0,
            frozenset({IB, IC}): 65.0,
            frozenset({IA, IB, IC}): 10.0,
        }
        trans = {IA: 30.0, IB: 10.0, IC: 1.0}
        service = _stub(lambda s: rates[s], trans=trans)
        target = Configuration({IA, IB, IC})
        plan = schedule_deployment(service, EMPTY_CONFIGURATION,
                                   target, object())
        actions = tuple(("create", d) for d in (IA, IB, IC))
        action_trans = {("create", d): trans[d] for d in (IA, IB, IC)}
        best = _brute_force_total(service, EMPTY_CONFIGURATION,
                                  actions, action_trans, object())
        assert plan.method == "exact"
        assert plan.total_units == pytest.approx(best)

    def test_greedy_never_worse_than_default(self):
        rates = {
            frozenset(): 90.0,
            frozenset({IA}): 20.0, frozenset({IB}): 70.0,
            frozenset({IC}): 80.0,
            frozenset({IA, IB}): 15.0, frozenset({IA, IC}): 18.0,
            frozenset({IB, IC}): 65.0,
            frozenset({IA, IB, IC}): 10.0,
        }
        service = _stub(lambda s: rates[s])
        target = Configuration({IA, IB, IC})
        scheduled = schedule_deployment(
            service, EMPTY_CONFIGURATION, target, object(),
            exact_limit=0)  # force greedy-vs-default
        default = schedule_deployment(
            service, EMPTY_CONFIGURATION, target, None)
        assert scheduled.method in ("greedy", "default")
        # Rebuild the default order's cost under the real rates.
        exact = schedule_deployment(service, EMPTY_CONFIGURATION,
                                    target, object())
        assert exact.total_units <= scheduled.total_units
        assert len(default.steps) == len(scheduled.steps)

    def test_idle_system_has_zero_exec_units(self):
        service = _stub(lambda s: 123.0)
        plan = schedule_deployment(
            service, EMPTY_CONFIGURATION, Configuration({IA, IB}),
            None)
        assert plan.exec_units == 0.0
        assert plan.trans_units == pytest.approx(20.0)

    def test_idle_system_gets_the_catalog_order(self):
        # Every order costs zero when idle; the DP's ties would pick
        # the reverse of the catalog order, which is what an idle
        # schedule must return.
        iab = IndexDef("t", ("a", "b"))
        service = _stub(lambda s: 0.0,
                        structures=(IA, IB, IC, iab))
        source, target = Configuration({IA, IB}), Configuration({IC, iab})
        plan = schedule_deployment(service, source, target, None)
        assert plan.method == "default"
        assert [s.label for s in plan.steps] == [
            "drop I(a)", "drop I(b)", "create I(a,b)", "create I(c)"]
        assert [(s.action, s.definition) for s in plan.steps] == list(
            transition_steps(source.structures, target.structures))

    def test_trans_units_are_order_invariant(self):
        rates = {s: 50.0 / (1 + len(s)) for s in (
            frozenset(), frozenset({IA}), frozenset({IB}),
            frozenset({IA, IB}))}
        trans = {IA: 12.0, IB: 4.0, IC: 1.0}
        service = _stub(lambda s: rates[s], trans=trans)
        plan = schedule_deployment(service, EMPTY_CONFIGURATION,
                                   Configuration({IA, IB}), object())
        assert plan.trans_units == pytest.approx(16.0)

    def test_compressed_variants_are_distinct_actions(self):
        trans = {IA: 10.0, IAL: 14.0}
        sizes = {IA: 100, IAL: 60}
        service = _stub(lambda s: 10.0, trans=trans, sizes=sizes)
        plan = schedule_deployment(
            service, Configuration({IA}), Configuration({IAL}),
            object())
        labels = sorted(step.label for step in plan.steps)
        assert labels == ["create I(a)@L", "drop I(a)"]


class TestSpaceBound:
    def test_endpoint_violation_raises(self):
        service = _stub(lambda s: 1.0, sizes={IA: 100, IB: 100,
                                              IC: 100})
        with pytest.raises(InfeasibleProblemError):
            schedule_deployment(service, EMPTY_CONFIGURATION,
                                Configuration({IA, IB}), None,
                                space_bound_bytes=150)

    def test_bound_forces_drop_before_create(self):
        # Source {IA}, target {IB}; both fit alone, not together —
        # the only feasible order is drop first.
        service = _stub(lambda s: 1.0,
                        trans={IA: 10.0, IB: 10.0},
                        sizes={IA: 100, IB: 100})
        plan = schedule_deployment(
            service, Configuration({IA}), Configuration({IB}),
            object(), space_bound_bytes=150)
        assert [s.label for s in plan.steps] == ["drop I(a)",
                                                 "create I(b)"]
        for config in plan.configurations():
            assert service.optimizer.configuration_size_bytes(
                config.structures) <= 150

    def test_unbounded_prefers_build_before_drop_when_cheaper(self):
        # Replacement: the new index serves the workload; with room
        # for both, building before dropping keeps the old one serving
        # nothing but costs nothing either — but dropping IA first
        # would raise no rate here, so check the bound is the only
        # thing forcing drop-first (the unbounded schedule keeps the
        # default create-cheap order's cost or better).
        rates = {
            frozenset({IA}): 50.0, frozenset({IB}): 10.0,
            frozenset(): 50.0, frozenset({IA, IB}): 10.0,
        }
        service = _stub(lambda s: rates[s],
                        trans={IA: 10.0, IB: 10.0},
                        sizes={IA: 100, IB: 100})
        plan = schedule_deployment(
            service, Configuration({IA}), Configuration({IB}),
            object())
        assert plan.steps[0].label == "create I(b)"


class TestExecution:
    @pytest.fixture()
    def service(self, fresh_db):
        return CostService(fresh_db.what_if())

    @pytest.fixture()
    def segment(self):
        workload = make_paper_workload("W1", paper_generator(seed=3),
                                       block_size=50)
        return next(iter(segment_by_count(workload, 50)))

    def test_execution_lands_on_target(self, fresh_db, service,
                                       segment):
        target = Configuration({IA, IAL.with_compression(
            Compression.HEAVY), VAB})
        plan = schedule_deployment(service, EMPTY_CONFIGURATION,
                                   target, segment)
        report = execute_deployment(fresh_db, plan)
        assert report.completed
        assert not report.skipped
        assert Configuration(fresh_db.current_configuration()) == \
            target

    def test_reexecution_skips_everything(self, fresh_db, service,
                                          segment):
        target = Configuration({IA, VAB})
        plan = schedule_deployment(service, EMPTY_CONFIGURATION,
                                   target, segment)
        execute_deployment(fresh_db, plan)
        report = execute_deployment(fresh_db, plan)
        assert not report.executed
        assert len(report.skipped) == len(plan.steps)

    def test_resume_skips_the_already_built_prefix(self, fresh_db,
                                                   service, segment):
        target = Configuration({IA, IB, VAB})
        plan = schedule_deployment(service, EMPTY_CONFIGURATION,
                                   target, segment)
        # Simulate a prior partial run: materialize the first step.
        first = plan.steps[0].definition
        if isinstance(first, ViewDef):
            fresh_db.create_view(first)
        else:
            fresh_db.create_index(first)
        report = execute_deployment(fresh_db, plan)
        assert [d for _, d in report.skipped] == [first]
        assert len(report.executed) == len(plan.steps) - 1
        assert Configuration(fresh_db.current_configuration()) == \
            target

    def test_stale_source_raises_design_error(self, fresh_db,
                                              service, segment):
        # IC is carried over by the plan (not dropped), so its absence
        # from the live catalog means the plan was scheduled against
        # the wrong design. (A missing structure the plan *drops* is
        # fine — that is the resume case.)
        plan = schedule_deployment(
            service, Configuration({IC, IB}), Configuration({IC, IA}),
            segment)
        with pytest.raises(DesignError):
            execute_deployment(fresh_db, plan)

    def test_drops_are_executed_and_charged(self, fresh_db, service,
                                            segment):
        fresh_db.apply_configuration(frozenset({IC}))
        plan = schedule_deployment(service, Configuration({IC}),
                                   Configuration({IA}), segment)
        report = execute_deployment(fresh_db, plan)
        assert Configuration(fresh_db.current_configuration()) == \
            Configuration({IA})
        assert report.metered.cpu_units >= \
            fresh_db.params.drop_index_cost

    def test_create_only_select_segment_rates_monotone(
            self, fresh_db, service, segment):
        # With a SELECT-only concurrent workload, every create can
        # only help: the per-step exec rates never increase.
        selects = segment.__class__(
            statements=tuple(s for s in segment.statements
                             if s.ast.__class__.__name__ ==
                             "SelectStmt"),
            start=segment.start)
        target = Configuration({IA, IB, VAB})
        plan = schedule_deployment(service, EMPTY_CONFIGURATION,
                                   target, selects)
        rates = [step.exec_rate for step in plan.steps]
        assert all(earlier >= later + (-1e-9)
                   for earlier, later in zip(rates, rates[1:]))


class TestPlanShape:
    def test_describe_mentions_every_step(self):
        service = _stub(lambda s: 10.0)
        plan = schedule_deployment(service, EMPTY_CONFIGURATION,
                                   Configuration({IA, IB}), object())
        text = plan.describe()
        for step in plan.steps:
            assert step.label in text
        assert plan.method in text

    def test_plan_is_frozen(self):
        service = _stub(lambda s: 10.0)
        plan = schedule_deployment(service, EMPTY_CONFIGURATION,
                                   Configuration({IA}), None)
        assert isinstance(plan, DeploymentPlan)
        with pytest.raises(AttributeError):
            plan.method = "other"
