"""Adversarial chaos scenarios for the safety-gated bandit tuner.

Each :class:`ChaosScenario` composes three declarative ingredients —
a phase layout (mix labels per observation block, Table 1 mixes), an
optional workload perturbation (:mod:`repro.workload.perturb`), and a
:class:`~repro.faults.injector.FaultPlan` — into one reproducible
adversity the :class:`~repro.core.bandit.BanditTuner` must survive:

==================  ==================================================
scenario            what it attacks
==================  ==================================================
``shift``           a mid-flight major workload shift (A-phase to
                    C-phase): evidence gathered before the shift is
                    worthless after it
``fault_storm``     transient estimate-fault bursts plus slow page
                    I/O: estimates keep degrading mid-run, and none
                    of it may become evidence
``dead_structures`` permanent index-build faults: the attractive
                    arms cannot be materialized at all, every deploy
                    must roll back cleanly
``crash_deploy``    a permanent fault at the ``deploy_step`` site:
                    a deployment crashes *between* its atomic steps,
                    resume hits the dead step again, and the honestly
                    landed partial design must stay inside the bound
``thrash``          oscillating A/B phases with block jitter, built
                    to bait the tuner into paying builds every block
==================  ==================================================

:func:`run_scenario` executes the gated bandit under the scenario's
faults, then **re-costs the recorded design sequence with a clean
(injector-free) twin service** and checks the safety invariant on
clean numbers at every observation prefix::

    realized(prefix) <= stayput(prefix) * (1 + bound) + slack

plus the evidence rules (no switch from degraded estimates) and the
Wii call budget. Verify family 9 (``banditsafety``) sweeps every
scenario and every seed through exactly this path; ``repro chaos
--scenario NAME`` runs one and prints the deterministic report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.bandit import BanditResult, BanditTuner, GateConfig, \
    default_arms
from ..core.costservice import CostService
from ..core.structures import Compression, Configuration
from ..errors import DesignError
from ..sqlengine.index import IndexDef
from ..workload.mixes import (PAPER_MIXES, PAPER_VALUE_RANGE,
                              paper_generator)
from ..workload.generator import workload_from_block_mixes
from ..workload.model import Workload
from ..workload.perturb import jitter_blocks
from ..workload.summary import iter_phases
from .chaos import chaos_database
from .injector import (FaultInjector, FaultPlan, FaultSpec, PERMANENT,
                       SLOW, TRANSIENT)

__all__ = [
    "ChaosScenario", "FAMILY_DESCRIPTION", "SCENARIOS",
    "ScenarioReport", "check_bandit_safety", "run_scenario",
    "scenario_names",
]

#: Family 9 (``banditsafety``) one-liner for verification reports.
FAMILY_DESCRIPTION = (
    "gated bandit within the regression bound vs stay-put on a clean "
    "re-cost at every prefix, no decision from degraded evidence, "
    "call budget respected, deterministic per seed with faults off")

#: The scenario fixture's columns (the paper's experimental table).
SCENARIO_COLUMNS: Tuple[str, ...] = ("a", "b", "c", "d")


@dataclass(frozen=True)
class ChaosScenario:
    """One declarative adversity: phases x perturbation x faults.

    ``block_mixes`` lays out one Table-1 mix label per observation
    block; ``fault_specs`` is the scenario's
    :class:`~repro.faults.injector.FaultPlan` body. ``quick_blocks``
    truncates the layout at CI-gate scale.
    """

    name: str
    description: str
    block_mixes: Tuple[str, ...]
    quick_block_mixes: Optional[Tuple[str, ...]] = None
    fault_specs: Tuple[FaultSpec, ...] = ()
    jitter: bool = False
    compression: bool = False
    block_size: int = 25
    quick_blocks: int = 10
    nrows: int = 2500
    quick_nrows: int = 1200
    regression_bound: float = 0.3
    slack_units: float = 60.0
    call_budget: Optional[int] = 3
    cooldown: int = 1
    decay: float = 0.85

    def fault_plan(self) -> FaultPlan:
        return FaultPlan(specs=self.fault_specs, label=self.name)

    def gate(self) -> GateConfig:
        return GateConfig(regression_bound=self.regression_bound,
                          slack_units=self.slack_units,
                          call_budget=self.call_budget,
                          cooldown=self.cooldown)

    def workload(self, seed: int, quick: bool = False) -> Workload:
        mixes = self.block_mixes
        if quick:
            mixes = self.quick_block_mixes or \
                mixes[:self.quick_blocks]
        workload = workload_from_block_mixes(
            paper_generator(seed=seed),
            [PAPER_MIXES[label] for label in mixes],
            self.block_size, name=self.name)
        if self.jitter:
            workload = jitter_blocks(workload, self.block_size,
                                     seed=seed + 1)
        return workload


def _candidates() -> Tuple[IndexDef, ...]:
    return tuple(IndexDef("t", (column,))
                 for column in SCENARIO_COLUMNS)


SCENARIOS: Dict[str, ChaosScenario] = {}


def _register(scenario: ChaosScenario) -> None:
    SCENARIOS[scenario.name] = scenario


_register(ChaosScenario(
    name="shift",
    description="mid-flight major workload shift (A-phase -> C-phase),"
                " fault-free; compressed variants in the arm space",
    block_mixes=("A",) * 8 + ("C",) * 8,
    quick_block_mixes=("A",) * 5 + ("C",) * 5,
    compression=True))

_register(ChaosScenario(
    name="fault_storm",
    description="transient estimate-fault bursts and slow page reads "
                "throughout; degraded estimates must defer, never "
                "decide",
    block_mixes=("A",) * 8 + ("C",) * 8,
    quick_block_mixes=("A",) * 5 + ("C",) * 5,
    fault_specs=(
        FaultSpec("estimate", TRANSIENT, probability=0.5, duration=3),
        FaultSpec("page_read", SLOW, probability=0.2,
                  latency_units=4.0),
    )))

_register(ChaosScenario(
    name="dead_structures",
    description="permanent index-build faults: attractive arms cannot "
                "be materialized, every deployment rolls back",
    block_mixes=("A",) * 8 + ("C",) * 8,
    fault_specs=(
        FaultSpec("index_build", PERMANENT, probability=0.4),
    )))

_register(ChaosScenario(
    name="crash_deploy",
    description="permanent deploy_step fault: a deployment crashes "
                "between its atomic actions; resume hits the dead "
                "step and the partial landing must stay bounded",
    block_mixes=("A",) * 8 + ("C",) * 8,
    quick_block_mixes=("A",) * 5 + ("C",) * 5,
    fault_specs=(
        FaultSpec("deploy_step", PERMANENT, at_call=2),
    )))

_register(ChaosScenario(
    name="thrash",
    description="oscillating A/B phases with block jitter, designed "
                "to bait build-thrashing",
    block_mixes=("A", "B") * 8,
    jitter=True))


def scenario_names() -> Tuple[str, ...]:
    return tuple(sorted(SCENARIOS))


# ----------------------------------------------------------------------
# execution + clean verification
# ----------------------------------------------------------------------

@dataclass
class ScenarioReport:
    """One scenario run plus its clean-twin safety audit.

    ``realized_units``/``stayput_units`` are *clean* re-costs of the
    recorded design sequence (injector off), independent of the
    ledger's in-run estimates; the invariant flags are computed from
    them.
    """

    name: str
    seed: int
    quick: bool
    result: BanditResult
    realized_units: float
    stayput_units: float
    bound_units: float
    invariant_ok: bool
    prefix_ok: bool
    budget_ok: bool
    degraded_decisions: int
    faults_fired: int
    degraded_estimates: int

    @property
    def ok(self) -> bool:
        return (self.invariant_ok and self.prefix_ok and
                self.budget_ok and self.degraded_decisions == 0)

    def format(self) -> str:
        safety = self.result.safety
        lines = [
            f"scenario {self.name} (seed {self.seed}"
            f"{', quick' if self.quick else ''}): "
            f"{'OK' if self.ok else 'FAILED'}",
            f"  realized {self.realized_units:.2f} vs stay-put "
            f"{self.stayput_units:.2f} (allowed "
            f"{self.stayput_units + self.bound_units:.2f})",
            f"  switches {safety['switches']}  fallbacks "
            f"{safety['fallbacks']}  rollbacks {safety['rollbacks']}  "
            f"gate blocks {safety['gate_blocks']}",
            f"  deferrals {safety['deferrals']}  degraded estimates "
            f"{self.degraded_estimates}  faults fired "
            f"{self.faults_fired}",
            f"  probes {safety['probe_calls']} (max/step "
            f"{safety['max_step_probes']}, budget skips "
            f"{safety['budget_skips']}, bound skips "
            f"{safety['bound_skips']})",
            f"  invariant {'OK' if self.invariant_ok else 'VIOLATED'}"
            f"  prefixes {'OK' if self.prefix_ok else 'VIOLATED'}"
            f"  budget {'OK' if self.budget_ok else 'EXCEEDED'}"
            f"  degraded decisions {self.degraded_decisions}",
        ]
        return "\n".join(lines)


def run_scenario(name: str, seed: int = 0, quick: bool = False,
                 inject: bool = True) -> ScenarioReport:
    """Run the gated bandit under one scenario and audit it cleanly.

    ``inject=False`` runs the same fixture with the fault plan
    stripped — the determinism probe of verify family 9.
    """
    scenario = SCENARIOS.get(name)
    if scenario is None:
        raise DesignError(
            f"unknown chaos scenario {name!r}; known: "
            f"{', '.join(scenario_names())}")
    workload = scenario.workload(seed, quick=quick)
    nrows = scenario.quick_nrows if quick else scenario.nrows
    db = chaos_database(seed, nrows=nrows, columns=SCENARIO_COLUMNS,
                        value_range=PAPER_VALUE_RANGE)
    injector = None
    if inject and scenario.fault_specs:
        injector = FaultInjector(scenario.fault_plan(), seed)
        db.set_fault_injector(injector)
    service = CostService(db.what_if())
    levels = (Compression.NONE, Compression.HEAVY) \
        if scenario.compression else ()
    arms = default_arms(_candidates(), levels=levels)
    tuner = BanditTuner(arms, service, gate=scenario.gate(), db=db,
                        decay=scenario.decay,
                        observe_every=scenario.block_size, seed=seed)
    result = tuner.run(workload.statements)
    degraded = service.stats.degraded_estimates
    faults = injector.stats.faults if injector is not None else 0

    realized, stayput, prefix_ok = _clean_audit(
        scenario, seed, nrows, workload, result)
    bound_units = (scenario.regression_bound * stayput +
                   scenario.slack_units)
    invariant_ok = realized <= stayput + bound_units + 1e-6
    budget_ok = (scenario.call_budget is None or
                 result.safety["max_step_probes"] <=
                 scenario.call_budget)
    return ScenarioReport(
        name=name, seed=seed, quick=quick, result=result,
        realized_units=realized, stayput_units=stayput,
        bound_units=bound_units, invariant_ok=invariant_ok,
        prefix_ok=prefix_ok, budget_ok=budget_ok,
        degraded_decisions=result.safety["decisions_on_degraded"],
        faults_fired=faults, degraded_estimates=degraded)


def _clean_audit(scenario: ChaosScenario, seed: int, nrows: int,
                 workload: Workload, result: BanditResult
                 ) -> Tuple[float, float, bool]:
    """Re-cost the recorded run with a clean twin service and check
    the invariant at every observation prefix.

    The twin database is rebuilt from the same seed, so its statistics
    — and therefore its what-if estimates — are exactly those the
    faulted run would have seen had every estimate resolved exact; the
    bandit never executes workload statements, so nothing else can
    drift between the twins.
    """
    twin = chaos_database(seed, nrows=nrows, columns=SCENARIO_COLUMNS,
                          value_range=PAPER_VALUE_RANGE)
    service = CostService(twin.what_if())
    assignments = result.design.assignments
    # Clean transition charges, attributed to their observation:
    # fallback reverts happen before their segment runs, switches
    # after it.
    pre_trans: Dict[int, float] = {}
    post_trans: Dict[int, float] = {}
    for decision in result.decisions:
        units = service.trans_cost(decision.old, decision.new)
        bucket = pre_trans if decision.fallback else post_trans
        bucket[decision.observation_index] = \
            bucket.get(decision.observation_index, 0.0) + units
    realized = 0.0
    stayput = 0.0
    prefix_ok = True
    baseline = result.design.initial
    for obs, phase in enumerate(iter_phases(workload.statements,
                                            scenario.block_size)):
        realized += pre_trans.get(obs, 0.0)
        config = assignments[phase.start]
        realized += service.exec_cost(phase, config)
        stayput += service.exec_cost(phase, baseline)
        realized += post_trans.get(obs, 0.0)
        allowed = (stayput * (1.0 + scenario.regression_bound) +
                   scenario.slack_units + 1e-6)
        if realized > allowed:
            prefix_ok = False
    return realized, stayput, prefix_ok


# ----------------------------------------------------------------------
# verify family 9: banditsafety
# ----------------------------------------------------------------------

def check_bandit_safety(result, seed: int, seeds: int = 2,
                        quick: bool = False) -> None:
    """Family 9: sweep every scenario through :func:`run_scenario`.

    Per scenario x seed, on the *clean twin* re-cost: the realized
    cost never exceeds stay-put by more than the scenario's bound
    (globally and at every observation prefix), no arm decision was
    made from degraded evidence, and the Wii call budget held.
    Vacuity guards assert each scenario exercised the adversity it
    claims (faults actually fired, the storm actually degraded
    estimates, the crashed deployment actually rolled back, the
    shift actually produced a switch). Finally, with the injector
    stripped, two runs of the same seed must be bit-identical — the
    determinism contract of the acceptance criteria.

    Args:
        result: the ``banditsafety``
            :class:`~repro.verify.report.CheckResult` to fill.
        seed: base seed; sweep seed ``i`` uses ``seed + i``.
        seeds: seeds swept per scenario.
        quick: run the scenarios' CI-gate layouts.
    """
    for name in scenario_names():
        scenario = SCENARIOS[name]
        for offset in range(seeds):
            report = run_scenario(name, seed=seed + offset,
                                  quick=quick)
            inst = f"{name}[seed={seed + offset}]"
            safety = report.result.safety
            result.check(
                report.invariant_ok, inst,
                f"realized {report.realized_units:.2f} exceeds "
                f"stay-put {report.stayput_units:.2f} + bound "
                f"{report.bound_units:.2f}")
            result.check(
                report.prefix_ok, inst,
                "safety bound violated at an observation prefix")
            result.check(
                report.budget_ok, inst,
                f"what-if budget exceeded: {safety['max_step_probes']}"
                f" probes in one step vs budget "
                f"{scenario.call_budget}")
            result.check(
                report.degraded_decisions == 0, inst,
                f"{report.degraded_decisions} decisions made from "
                f"degraded evidence")
            if scenario.fault_specs:
                result.check(
                    report.faults_fired > 0, inst,
                    "fault scenario fired no faults (vacuous run)")
            if name == "fault_storm":
                result.check(
                    report.degraded_estimates > 0, inst,
                    "storm degraded no estimates (vacuous run)")
            if name == "crash_deploy":
                result.check(
                    safety["rollbacks"] > 0, inst,
                    "no deployment crashed and rolled back "
                    "(vacuous run)")
            if name == "shift":
                result.check(
                    safety["switches"] > 0, inst,
                    "shift scenario never switched designs "
                    "(vacuous run)")
        first = run_scenario(name, seed=seed, quick=quick,
                             inject=False)
        second = run_scenario(name, seed=seed, quick=quick,
                              inject=False)
        inst = f"{name}[determinism]"
        result.check(
            first.result.decisions == second.result.decisions and
            first.result.design.assignments ==
            second.result.design.assignments, inst,
            "injector-off runs of the same seed diverged")
        result.check(
            first.realized_units == second.realized_units and
            first.stayput_units == second.stayput_units, inst,
            "injector-off clean re-costs of the same seed diverged")
