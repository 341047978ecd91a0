"""Unit tests for the bandit tuner: the safety-gated rule and the
reactive baseline rule.

The synthetic provider costs each statement by index and configuration
(scans cost 100, a covering index costs 1), bounds every segment by
the scan cost, and never degrades — so every gate behavior here is a
deterministic function of the knobs under test.
"""

import numpy as np
import pytest

from repro.core import (BanditTuner, Configuration,
                        EMPTY_CONFIGURATION, GateConfig, ReactiveRule,
                        default_arms)
from repro.core.structures import Compression
from repro.errors import DesignError, EstimationUnavailable
from repro.sqlengine import IndexDef
from repro.workload import Statement

A = IndexDef("t", ("a",))
B = IndexDef("t", ("b",))
CA = Configuration({A})
CB = Configuration({B})

SCAN = 100.0


class SyntheticProvider:
    """Per-statement costs via ``cost_fn(statement_index, config)``;
    creates cost ``build_cost``, drops cost 1."""

    def __init__(self, cost_fn, build_cost=30.0):
        self.cost_fn = cost_fn
        self.build_cost = build_cost

    def exec_cost(self, segment, config):
        return float(sum(self.cost_fn(i, config)
                         for i in range(segment.start, segment.end)))

    def trans_cost(self, old, new):
        creates = set(new.structures) - set(old.structures)
        drops = set(old.structures) - set(new.structures)
        return self.build_cost * len(creates) + 1.0 * len(drops)

    def upper_bound_cost(self, segment, config):
        return SCAN * len(segment)

    def size_bytes(self, config):
        return 0


class FlakyProvider(SyntheticProvider):
    """Raises EstimationUnavailable for segments starting in ``bad``."""

    def __init__(self, cost_fn, bad_starts, build_cost=30.0):
        super().__init__(cost_fn, build_cost)
        self.bad = set(bad_starts)

    def exec_cost(self, segment, config):
        if segment.start in self.bad:
            raise EstimationUnavailable("injected", retryable=False)
        return super().exec_cost(segment, config)


def statements(n, column="a"):
    return [Statement(f"SELECT {column} FROM t "
                      f"WHERE {column} = {i}") for i in range(n)]


def hot_a_cost(i, config):
    """Index on ``a`` serves everything at 1; all else scans."""
    return 1.0 if config == CA else SCAN


def _tuner(provider, gate=None, **kwargs):
    kwargs.setdefault("observe_every", 10)
    kwargs.setdefault("decay", 0.9)
    return BanditTuner([CA, CB], provider, gate=gate, **kwargs)


class TestConstruction:
    def test_empty_arms_raise(self):
        with pytest.raises(DesignError):
            BanditTuner([], provider=None)

    def test_bad_decay_raises(self):
        with pytest.raises(DesignError):
            BanditTuner([CA], provider=None, decay=0.0)

    def test_bad_observe_every_raises(self):
        with pytest.raises(DesignError):
            BanditTuner([CA], provider=None, observe_every=0)

    @pytest.mark.parametrize("bad", [2.5, True])
    def test_bad_observe_every_count_raises(self, bad):
        with pytest.raises(DesignError):
            BanditTuner([CA], provider=None, observe_every=bad)

    @pytest.mark.parametrize("bad", [
        dict(shift_window=0), dict(shift_threshold=0.0),
        dict(shift_threshold=-0.25), dict(shift_threshold=float("nan")),
        dict(shift_threshold=float("inf")), dict(shift_window=1.5),
        dict(shift_window=True)])
    def test_bad_shift_arguments_raise(self, bad):
        with pytest.raises(DesignError):
            BanditTuner([CA], provider=None, **bad)

    @pytest.mark.parametrize("bad", [
        dict(regression_bound=-0.1), dict(slack_units=-1.0),
        dict(call_budget=-1), dict(build_factor=0.0),
        dict(cooldown=-1), dict(epsilon=1.5),
        dict(regression_bound=float("nan")),
        dict(slack_units=float("nan")), dict(build_factor=float("nan")),
        dict(regression_bound=float("inf")),
        dict(build_factor=float("inf")), dict(cooldown=2.5),
        dict(cooldown=True), dict(call_budget=True),
        dict(call_budget=1.5), dict(epsilon=float("nan"))])
    def test_gate_validation(self, bad):
        with pytest.raises(DesignError):
            GateConfig(**bad)

    @pytest.mark.parametrize("bad", [
        dict(build_factor=0.0), dict(build_factor=-1.0),
        dict(build_factor=float("nan")),
        dict(build_factor=float("inf")), dict(cooldown=-1),
        dict(cooldown=2.5), dict(cooldown=True)])
    def test_bad_reactive_rule_raises(self, bad):
        with pytest.raises(DesignError):
            ReactiveRule(**bad)

    def test_initial_is_always_the_first_arm(self):
        tuner = _tuner(SyntheticProvider(hot_a_cost))
        assert tuner.arms[0] == EMPTY_CONFIGURATION
        assert len(tuner.arms) == 3


class TestDefaultArms:
    def test_baseline_plus_singletons(self):
        arms = default_arms([A, B])
        assert arms[0] == EMPTY_CONFIGURATION
        assert CA in arms and CB in arms
        assert len(arms) == 3

    def test_compression_levels_expand_the_space(self):
        plain = default_arms([A, B])
        expanded = default_arms(
            [A, B], levels=(Compression.NONE, Compression.HEAVY))
        assert len(expanded) > len(plain)
        assert expanded[0] == EMPTY_CONFIGURATION


class TestAdaptation:
    def test_adopts_the_hot_arm_within_the_bound(self):
        stmts = statements(80)
        result = _tuner(SyntheticProvider(hot_a_cost)).run(stmts)
        assert result.safety["switches"] >= 1
        assert result.design.assignments[-1] == CA
        assert result.total_cost < result.stayput_cost
        gate = GateConfig()
        assert result.total_cost <= result.stayput_cost * \
            (1.0 + gate.regression_bound) + gate.slack_units + 1e-6

    def test_deterministic_per_seed(self):
        stmts = statements(80)
        first = _tuner(SyntheticProvider(hot_a_cost),
                       seed=3).run(stmts)
        second = _tuner(SyntheticProvider(hot_a_cost),
                        seed=3).run(stmts)
        assert first.decisions == second.decisions
        assert first.design.assignments == second.design.assignments
        assert first.total_cost == second.total_cost
        assert first.safety == second.safety

    def test_second_run_on_one_tuner_equals_the_first(self):
        """``run`` resets: the shift report carried between
        observations belongs to the first stream, not the second."""
        stmts = statements(40) + statements(40, column="b")
        tuner = _tuner(SyntheticProvider(hot_a_cost), shift_window=2)
        first = tuner.run(stmts)
        assert first.safety["shift_resets"] == 1
        assert tuner.run(stmts) == first


class TestBudget:
    def test_call_budget_caps_probes_per_observation(self):
        gate = GateConfig(call_budget=1)
        result = _tuner(SyntheticProvider(hot_a_cost),
                        gate=gate).run(statements(60))
        assert result.safety["max_step_probes"] <= 1
        assert result.safety["budget_skips"] > 0
        # The budget throttles probing, not safety: the bound holds.
        assert result.total_cost <= result.stayput_cost * \
            (1.0 + gate.regression_bound) + 1e-6

    def test_bound_interval_skips_hopeless_probes(self):
        # With an astronomic deploy threshold no probe can ever flip
        # the arm choice, and the Wii rule proves it without calling.
        gate = GateConfig(build_factor=1e9)
        result = _tuner(SyntheticProvider(hot_a_cost),
                        gate=gate).run(statements(60))
        assert result.safety["bound_skips"] > 0
        assert result.safety["probe_calls"] == 0
        assert result.safety["switches"] == 0


class TestDegradedEvidence:
    def test_unavailable_estimates_defer_the_observation(self):
        provider = FlakyProvider(hot_a_cost, bad_starts={0, 10})
        result = _tuner(provider).run(statements(80))
        assert result.safety["deferrals"] == 2
        assert result.safety["unavailable_deferrals"] == 2
        assert result.safety["decisions_on_degraded"] == 0
        # No decision rode on the deferred observations.
        assert all(d.observation_index not in (0, 1)
                   for d in result.decisions)
        # Evidence recovered afterwards: the hot arm still wins.
        assert result.safety["switches"] >= 1


class TestFailSafeValve:
    def test_reverts_before_breaching_the_bound(self):
        # Phase 1 (40 stmts): every index serves at 1. Phase 2 (100
        # stmts): every index regresses to 200 vs the 100 scan, so no
        # arm switch can save the run — the valve must return to
        # baseline before the ledger debt outruns the headroom.
        def flipping(i, config):
            if config == EMPTY_CONFIGURATION:
                return SCAN
            return 1.0 if i < 40 else 200.0

        gate = GateConfig(cooldown=0)
        result = _tuner(SyntheticProvider(flipping),
                        gate=gate).run(statements(140))
        assert result.safety["fallbacks"] >= 1
        fallbacks = [d for d in result.decisions if d.fallback]
        assert all(d.new == EMPTY_CONFIGURATION for d in fallbacks)
        assert result.design.assignments[-1] == EMPTY_CONFIGURATION
        assert result.total_cost <= result.stayput_cost * \
            (1.0 + gate.regression_bound) + gate.slack_units + 1e-6

    def test_result_exposes_the_ledger(self):
        result = _tuner(SyntheticProvider(hot_a_cost)
                        ).run(statements(40))
        assert result.headroom == pytest.approx(
            GateConfig().regression_bound * result.stayput_cost)
        assert result.debt <= result.headroom + 1e-9
        assert result.safety["observations"] == 4


class TestEmptyStream:
    def test_empty_statements_raise(self):
        with pytest.raises(DesignError):
            _tuner(SyntheticProvider(hot_a_cost)).run([])


def phase_cost(i, config, boundary):
    """Statements before ``boundary`` favor A, the rest favor B."""
    return 1.0 if config == (CA if i < boundary else CB) else SCAN


def _reactive(provider, build_factor=1.5, cooldown=0, decay=0.9):
    return BanditTuner([CA, CB], provider,
                       gate=ReactiveRule(build_factor, cooldown),
                       decay=decay, observe_every=1)


class TestReactiveRule:
    def test_empty_candidates_raise(self):
        with pytest.raises(DesignError):
            BanditTuner([], provider=None, gate=ReactiveRule())

    def test_bad_decay_raises(self):
        with pytest.raises(DesignError):
            _reactive(SyntheticProvider(hot_a_cost), decay=0.0)

    def test_adopts_the_hot_index(self):
        provider = SyntheticProvider(hot_a_cost, build_cost=50.0)
        result = _reactive(provider).run(statements(60))
        assert result.design[-1] == CA
        assert result.change_count >= 1

    def test_follows_a_phase_shift(self):
        provider = SyntheticProvider(
            lambda i, c: phase_cost(i, c, boundary=60), build_cost=50.0)
        result = _reactive(provider, cooldown=5).run(statements(120))
        assert result.design[30] == CA
        assert result.design[-1] == CB
        # The switch to B necessarily lags the shift at 60.
        switch = next(d for d in result.decisions if d.new == CB)
        assert switch.statement_index >= 60

    def test_no_switch_when_benefit_below_build_cost(self):
        # Index A saves only 1 unit/statement; build costs 1000.
        provider = SyntheticProvider(
            lambda i, c: 9.0 if c == CA else 10.0, build_cost=1000.0)
        result = _reactive(provider, build_factor=1.0).run(
            statements(40))
        assert result.change_count == 0
        assert all(c == EMPTY_CONFIGURATION
                   for c in result.design.assignments)

    def test_cooldown_limits_change_rate(self):
        flip = np.random.default_rng(0).random(100) < 0.5

        def cost(i, c):
            return 1.0 if c == (CA if flip[i] else CB) else SCAN
        provider = SyntheticProvider(cost, build_cost=10.0)
        result = _reactive(provider, build_factor=1.0,
                           cooldown=25).run(statements(100))
        assert result.change_count <= 100 // 25 + 1
        switches = [d.observation_index for d in result.decisions]
        assert all(b - a >= 25 for a, b in zip(switches, switches[1:]))

    def test_cost_accounting_consistent(self):
        provider = SyntheticProvider(
            lambda i, c: phase_cost(i, c, boundary=40), build_cost=50.0)
        result = _reactive(provider, cooldown=5).run(statements(80))
        assert result.change_count >= 2
        assert result.total_cost == result.exec_cost + result.trans_cost
        # Re-derive both halves from the recorded design.
        assert result.exec_cost == pytest.approx(sum(
            phase_cost(i, config, boundary=40)
            for i, config in enumerate(result.design.assignments)))
        assert result.trans_cost == pytest.approx(sum(
            provider.trans_cost(d.old, d.new) for d in result.decisions))

    def test_empty_stream_raises(self):
        with pytest.raises(DesignError):
            _reactive(SyntheticProvider(hot_a_cost)).run([])

    def test_run_resets_state(self):
        provider = SyntheticProvider(hot_a_cost, build_cost=50.0)
        tuner = _reactive(provider)
        first = tuner.run(statements(60))
        assert first.change_count >= 1
        assert tuner.run(statements(60)) == first

    def test_unavailable_estimates_defer_observation(self):
        provider = FlakyProvider(
            lambda i, c: phase_cost(i, c, boundary=20),
            bad_starts={3, 4, 5}, build_cost=5.0)
        result = _reactive(provider, cooldown=3, decay=0.95).run(
            statements(40))
        assert result.deferrals == 3
        # Deferred statements moved no evidence but the stream still
        # produced a full-length design.
        assert len(result.design.assignments) == 40
        # The safety counters expose the deferral split: these were all
        # unavailable estimates, none degraded.
        assert result.safety["deferrals"] == 3
        assert result.safety["unavailable_deferrals"] == 3
        assert result.safety["degraded_deferrals"] == 0
        assert all(d.observation_index not in (3, 4, 5)
                   for d in result.decisions)

    def test_no_gate_no_valve(self):
        # Every index regresses after statement 40. The reactive rule
        # has no valve: it returns to the baseline on evidence alone,
        # as an ordinary switch.
        def flipping(i, config):
            if config == EMPTY_CONFIGURATION:
                return SCAN
            return 1.0 if i < 40 else 200.0
        result = _reactive(SyntheticProvider(flipping)).run(
            statements(140))
        assert result.design[-1] == EMPTY_CONFIGURATION
        assert not any(d.fallback for d in result.decisions)
        assert result.headroom == float("inf")
        assert result.safety["gate_checks"] == 0
        assert result.safety["fallbacks"] == 0
        assert result.safety["shift_resets"] == 0
