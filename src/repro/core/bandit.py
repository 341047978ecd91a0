"""Online tuning: one observation loop, two decision rules.

The paper positions its *offline* constrained approach against online
tuners (Bruno & Chaudhuri's ICDE'07 line of work, Section 1/7): an
online mechanism sees only the past and must react, while the offline
optimizer sees the whole representative trace in advance.
:class:`BanditTuner` is the online side, and its ``gate`` picks the
rule once per run.

:class:`ReactiveRule` is the related-work baseline: every arm is
costed each observation (what-if calls, like the real systems) and
accumulates decayed *benefit* — the cost it would have saved, floored
at zero — and the best arm is adopted once its benefit exceeds
``build_factor`` times its switch cost, ``cooldown`` observations
after the last change. On workloads with recurring phases it re-pays
builds at every boundary and lags every shift: the behaviour that
motivates optimizing offline when a trace is available (``repro
experiment online``). It differs from the gated rule in exactly four
places: (1) one context — no profile, no shift reset; (2) no pruning
— no bound skip, no call budget; (3) no gate and no valve; (4) argmax,
then threshold, where the gated rule keeps the arms over their
thresholds and takes the best of those. An observation with any
inexact estimate is deferred whole.

:class:`GateConfig` (the default) covers what the reactive rule lacks
— nothing stops that rule from deploying a design that *regresses*
the workload when estimates are noisy or degraded. The gated rule
follows the self-driving literature (DBA bandits; Wii — see
PAPERS.md):

* **Arms** are whole candidate configurations (structure sets,
  compressed variants included), not single indexes.
* **Context** is the per-observation workload profile
  (:func:`~repro.workload.analysis.segment_profile`): reward is
  accumulated per ``(context, arm)``, so evidence gathered under mix A
  does not vouch for an arm under mix C, and a detected major shift
  (:func:`~repro.workload.analysis.detect_shifts_from_profiles`)
  resets the evidence outright.
* **Reward** is decayed realized benefit versus the incumbent, floored
  at zero (the reactive rule's hysteresis).

Every decision passes a hard :class:`SafetyGate` built around a *debt
ledger*. Let ``stayput`` be the estimated cost of never leaving the
baseline design and ``debt`` the estimated realized excess over it
(regression run under non-baseline designs, plus every transition
paid). The gate maintains the invariant

    ``debt + revert_cost(current -> baseline) <= headroom``, where
    ``headroom = regression_bound * stayput + slack_units``

at every observation: a switch must prepay its transition *and*
reserve the cost of undoing it; an observation whose projected
regression would breach the bound triggers a fail-safe revert to the
baseline *before* the regression is paid. Hence the realized cost can
never exceed the stay-put baseline by more than the configured bound —
the property verify family 9 (``banditsafety``) checks under every
adversarial scenario in :mod:`repro.faults.scenarios`.

Degraded or unavailable estimates are never evidence (PR 4 deferral
semantics, extended): an observation whose estimates degrade defers
all reward updates and can never *start* a switch; the ledger instead
charges the sound pessimistic
:meth:`~repro.core.costservice.CostService.upper_bound_cost` for the
incumbent and a zero floor for the baseline, so uncertainty pushes the
tuner *toward* the safe design, never away from it. Estimate spending
is bounded Wii-style: each observation may issue at most
``call_budget`` arm probes, and a probe whose bound interval provably
cannot lift the arm over its deployment threshold this step is skipped
without being charged.

Materialization is production-shaped: with a database attached, every
switch is ordered by :func:`~repro.core.deployment.schedule_deployment`
against the observation's own phase and executed through the
crash-safe, resumable :func:`~repro.core.deployment.execute_deployment`
path; a faulted deployment is resumed once and otherwise rolled back
(the honest landed configuration becomes the incumbent, and the valve
still holds).
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..errors import (DesignError, EstimationUnavailable,
                      TransitionError)
from ..workload.analysis import (BlockProfile, ShiftReport,
                                 detect_shifts_from_profiles,
                                 dominant_column, segment_profile)
from ..workload.model import Statement
from ..workload.summary import PhaseSummary, iter_phases
from .costmatrix import CostProvider
from .design import DesignSequence
from .structures import (Configuration, EMPTY_CONFIGURATION,
                         compressed_variants,
                         single_index_configurations)

_ONE_CONTEXT = "*"  # the reactive rule does not split evidence

__all__ = [
    "BanditDecision", "BanditResult", "BanditTuner", "GateConfig",
    "ReactiveRule", "SafetyStats", "default_arms",
]


def _require_nonnegative(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise DesignError(f"{name} must be finite and >= 0")


def _require_count(name: str, value: int, minimum: int) -> None:
    """Counts are integers: a bool or a fractional value is a typo,
    not a count."""
    if isinstance(value, bool) or \
            not isinstance(value, numbers.Integral) or value < minimum:
        raise DesignError(f"{name} must be an integer >= {minimum}")


def _check_hysteresis(rule) -> None:
    """The ``build_factor`` and ``cooldown`` both rules carry."""
    if not (math.isfinite(rule.build_factor) and rule.build_factor > 0):
        raise DesignError("build_factor must be finite and positive")
    _require_count("cooldown", rule.cooldown, 0)


@dataclass(frozen=True)
class GateConfig:
    """The safety gate's knobs.

    Attributes:
        regression_bound: relative headroom — realized cost may exceed
            the stay-put baseline by at most this fraction of it.
        slack_units: absolute headroom added on top (lets the gate act
            before any baseline cost has accrued).
        call_budget: Wii-style cap on arm probes (what-if estimate
            requests beyond the mandatory baseline/incumbent pair) per
            observation; ``None`` = unbounded.
        build_factor: an arm must accumulate this multiple of its
            switch cost in reward before it is deployable (the
            :class:`ReactiveRule` hysteresis).
        cooldown: minimum observations between two evidence-driven
            switches (fail-safe reverts are exempt — safety never
            waits).
        epsilon: exploration rate among *deployable* arms (seeded;
            exploration never bypasses the gate).
    """

    regression_bound: float = 0.25
    slack_units: float = 0.0
    call_budget: Optional[int] = None
    build_factor: float = 2.0
    cooldown: int = 2
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        _require_nonnegative("regression_bound", self.regression_bound)
        _require_nonnegative("slack_units", self.slack_units)
        if self.call_budget is not None:
            _require_count("call_budget", self.call_budget, 0)
        _check_hysteresis(self)
        if not 0.0 <= self.epsilon <= 1.0:
            raise DesignError("epsilon must be in [0, 1]")


@dataclass(frozen=True)
class ReactiveRule:
    """The reactive baseline's knobs: pass one as ``gate=`` and
    :class:`BanditTuner` runs the related-work online tuner.

    Attributes:
        build_factor: an arm must accumulate this multiple of its
            switch cost in benefit before the tuner adopts it
            (hysteresis against oscillation).
        cooldown: minimum observations between two design changes
            (real online tuners throttle reconfiguration).
    """

    build_factor: float = 2.0
    cooldown: int = 50

    def __post_init__(self) -> None:
        _check_hysteresis(self)


@dataclass
class SafetyStats:
    """What the gate did, and why — one counter per cause.

    ``decisions_on_degraded`` exists to be asserted zero: the verify
    family checks that no arm switch ever rode on degraded evidence.
    """

    observations: int = 0
    estimate_calls: int = 0
    probe_calls: int = 0
    max_step_probes: int = 0
    budget_skips: int = 0
    bound_skips: int = 0
    deferrals: int = 0
    degraded_deferrals: int = 0
    unavailable_deferrals: int = 0
    degraded_probes: int = 0
    pessimistic_steps: int = 0
    gate_checks: int = 0
    gate_blocks: int = 0
    pessimistic_gates: int = 0
    switches: int = 0
    fallbacks: int = 0
    deployments: int = 0
    rollbacks: int = 0
    shift_resets: int = 0
    decisions_on_degraded: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(vars(self))


@dataclass(frozen=True)
class BanditDecision:
    """One configuration change (an evidence-driven switch, or a
    fail-safe revert when ``fallback`` is set)."""

    observation_index: int
    statement_index: int
    old: Configuration
    new: Configuration
    context: str
    reward: float
    switch_cost: float
    fallback: bool = False


@dataclass
class BanditResult:
    """Outcome of a safety-gated bandit run.

    ``stayput_cost``/``debt``/``headroom`` are the gate's ledger view
    (pessimistic wherever estimates were degraded); the verify family
    re-costs the recorded design sequence with a clean provider and
    checks ``realized <= stayput * (1 + bound) + slack`` independently.
    """

    design: DesignSequence
    total_cost: float
    exec_cost: float
    trans_cost: float
    stayput_cost: float
    debt: float
    headroom: float
    decisions: List[BanditDecision]
    deferrals: int
    safety: Dict[str, int]
    costing: Optional[Dict[str, object]] = None

    @property
    def change_count(self) -> int:
        return len(self.decisions)


def default_arms(candidates: Sequence[object],
                 levels: Sequence[object] = (),
                 initial: Configuration = EMPTY_CONFIGURATION
                 ) -> Tuple[Configuration, ...]:
    """The default arm space: the baseline plus every single-structure
    configuration over the candidates — compressed variants included
    when ``levels`` names compression levels (PR 8)."""
    space = list(candidates)
    if levels:
        space = list(compressed_variants(space, levels))
    arms: List[Configuration] = [initial]
    for config in single_index_configurations(space,
                                              include_empty=False):
        if config != initial:
            arms.append(config)
    return tuple(arms)


class BanditTuner:
    """A contextual-bandit online tuner wrapped in a hard safety gate.

    Args:
        arms: candidate configurations (structure sets). The baseline
            ``initial`` is always an arm.
        provider: cost provider. A
            :class:`~repro.core.costservice.CostService` unlocks the
            full ladder (degradation detection via its
            ``degraded_estimates`` counter, sound pessimistic bounds
            via ``upper_bound_cost``, deployment scheduling); any
            :class:`~repro.core.costmatrix.CostProvider` works for
            costing-only runs.
        gate: the decision rule — :class:`GateConfig` safety knobs
            (the default), or a :class:`ReactiveRule` for the reactive
            baseline (no gate, no valve; see the module docstring).
        db: optional live database. When given, every switch is
            scheduled with :func:`~repro.core.deployment.
            schedule_deployment` and executed crash-safely; without
            it the tuner pays ``provider.trans_cost`` abstractly.
        decay: per-observation reward decay.
        observe_every: statements per observation (one phase).
        seed: exploration seed — with a fault-free provider the whole
            decision sequence is a deterministic function of it.
        initial: the baseline (stay-put) configuration.
        shift_window / shift_threshold: arguments to
            :func:`~repro.workload.analysis.
            detect_shifts_from_profiles` for online evidence resets.
    """

    def __init__(self, arms: Sequence[Configuration],
                 provider: CostProvider,
                 gate: Union[GateConfig, ReactiveRule, None] = None,
                 db=None, decay: float = 0.9,
                 observe_every: int = 10, seed: int = 0,
                 initial: Configuration = EMPTY_CONFIGURATION,
                 shift_window: int = 3,
                 shift_threshold: float = 0.25):
        if not arms:
            raise DesignError("bandit tuner needs candidate arms")
        if not 0.0 < decay <= 1.0:
            raise DesignError("decay must be in (0, 1]")
        _require_count("observe_every", observe_every, 1)
        _require_count("shift_window", shift_window, 1)
        if not (math.isfinite(shift_threshold) and shift_threshold > 0):
            raise DesignError("shift_threshold must be finite and > 0")
        self.gate = gate if gate is not None else GateConfig()
        self.provider = provider
        self.db = db
        self.decay = decay
        self.observe_every = observe_every
        self.seed = seed
        self.initial = initial
        self.shift_window = shift_window
        self.shift_threshold = shift_threshold
        ordered: List[Configuration] = []
        for arm in (initial, *arms):
            if arm not in ordered:
                ordered.append(arm)
        self.arms: Tuple[Configuration, ...] = tuple(ordered)
        self.reset()

    def reset(self) -> None:
        """Forget everything: evidence, ledger, position, profiles."""
        self.current = self.initial
        self.stats = SafetyStats()
        self._rng = random.Random(self.seed)
        self._reward: Dict[Tuple[str, Configuration], float] = {}
        self._debt = 0.0
        self._stayput = 0.0
        self._exec_total = 0.0
        self._trans_total = 0.0
        self._assignments: List[Configuration] = []
        self._decisions: List[BanditDecision] = []
        self._profiles: List[BlockProfile] = []
        self._seen_shifts: Set[int] = set()
        self._shift_report: Optional[ShiftReport] = None
        self._observation = 0
        self._last_switch = -10 ** 9

    # ------------------------------------------------------------------
    # ledger
    # ------------------------------------------------------------------

    @property
    def headroom(self) -> float:
        """``regression_bound * stayput + slack`` — how far realized
        cost may currently run ahead of the stay-put baseline."""
        return (self.gate.regression_bound * self._stayput +
                self.gate.slack_units)

    def _upper_bound(self, segment, config: Configuration) -> float:
        """A sound upper bound on EXEC(segment, config); infinite when
        the provider cannot bound (which forces the fail-safe path)."""
        bound = getattr(self.provider, "upper_bound_cost", None)
        if bound is None:
            return float("inf")
        return bound(segment, config)

    def _provider_degraded(self) -> int:
        stats = getattr(self.provider, "stats", None)
        return getattr(stats, "degraded_estimates", 0)

    def _exec_exact(self, segment, config: Configuration
                    ) -> Optional[float]:
        """One guarded estimate: the value only when it is exact —
        unavailable or degraded answers come back as ``None`` (they
        are never evidence)."""
        degraded_before = self._provider_degraded()
        self.stats.estimate_calls += 1
        try:
            units = self.provider.exec_cost(segment, config)
        except EstimationUnavailable:
            return None
        if self._provider_degraded() != degraded_before:
            return None
        return units

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------

    def run(self, statements: Sequence[Statement]) -> BanditResult:
        """Tune over a statement stream, one observation per
        ``observe_every`` consecutive statements.

        Each observation is folded once into a
        :class:`~repro.workload.summary.PhaseSummary`
        (:func:`~repro.workload.summary.iter_phases`), and that one
        unit goes to the profile, every estimate, the bound and the
        deployment schedule — no call re-groups the statements.
        Under a :class:`ReactiveRule` the ledger is kept but never
        consulted, and the result's ``headroom`` is infinite.
        """
        self.reset()
        gated = isinstance(self.gate, GateConfig)
        observe = self._observe if gated else self._react
        snapshot = None
        if callable(getattr(self.provider, "stats_snapshot", None)):
            snapshot = self.provider.stats_snapshot()
        for phase in iter_phases(statements, self.observe_every):
            observe(phase)
        if not self._observation:
            raise DesignError("empty statement stream")
        costing = None
        if snapshot is not None:
            costing = self.provider.stats_delta(snapshot)
        design = DesignSequence(self.initial, list(self._assignments))
        return BanditResult(
            design=design,
            total_cost=self._exec_total + self._trans_total,
            exec_cost=self._exec_total,
            trans_cost=self._trans_total,
            stayput_cost=self._stayput,
            debt=self._debt,
            headroom=self.headroom if gated else float("inf"),
            decisions=list(self._decisions),
            deferrals=self.stats.deferrals,
            safety=self.stats.as_dict(),
            costing=costing)

    # ------------------------------------------------------------------
    # one observation
    # ------------------------------------------------------------------

    def _observe(self, segment: PhaseSummary) -> None:
        obs = self._observation
        self._observation += 1
        self.stats.observations += 1
        profile = segment_profile(segment, block_index=obs)
        context = dominant_column(profile)
        self._profiles.append(profile)
        self._maybe_reset_on_shift()
        # Decay this context's evidence once per observation.
        for arm in self.arms:
            key = (context, arm)
            if key in self._reward:
                self._reward[key] *= self.decay

        baseline_units, incumbent_units, degraded = \
            self._step_estimates(segment)
        if degraded:
            self.stats.deferrals += 1

        # Fail-safe valve: commit to running this segment under the
        # incumbent only if even the projected (pessimistic, when
        # degraded) regression plus the reserved revert fits the
        # headroom — otherwise revert to the baseline *first*, before
        # the regression is ever paid.
        if self.current != self.initial:
            revert_cost = self.provider.trans_cost(self.current,
                                                   self.initial)
            projected = incumbent_units - baseline_units
            next_headroom = (self.gate.regression_bound *
                             (self._stayput + baseline_units) +
                             self.gate.slack_units)
            if self._debt + projected + revert_cost > next_headroom:
                self._revert(segment, obs, context)
                incumbent_units = baseline_units

        config = self.current
        self._assignments.extend([config] * len(segment))
        self._stayput += baseline_units
        self._exec_total += incumbent_units
        if config != self.initial:
            self._debt += incumbent_units - baseline_units

        if degraded:
            return  # non-evidence: no reward updates, no switch.

        probed = self._probe_arms(segment, context, incumbent_units)
        self._maybe_switch(segment, obs, context, incumbent_units,
                           probed)

    def _step_estimates(self, segment) -> Tuple[float, float, bool]:
        """(baseline units, incumbent units, degraded?) for one
        observation. Degraded steps charge the sound upper bound for a
        non-baseline incumbent and the zero floor for the baseline, so
        the ledger only ever over-states real debt and under-states
        real stay-put cost — the direction the safety proof needs."""
        baseline = self._exec_exact(segment, self.initial)
        if self.current == self.initial:
            if baseline is None:
                self.stats.unavailable_deferrals += 1
                self.stats.pessimistic_steps += 1
                # Running the baseline contributes zero excess no
                # matter what the step really costs; charging zero on
                # both sides keeps the ledger's stay-put side an
                # under-estimate (charging a bound would inflate the
                # headroom anti-conservatively).
                return 0.0, 0.0, True
            return baseline, baseline, False
        incumbent = self._exec_exact(segment, self.current)
        if baseline is None or incumbent is None:
            if baseline is None and incumbent is None:
                self.stats.unavailable_deferrals += 1
            else:
                self.stats.degraded_deferrals += 1
            self.stats.pessimistic_steps += 1
            floor = baseline if baseline is not None else 0.0
            ceiling = incumbent if incumbent is not None else \
                self._upper_bound(segment, self.current)
            return floor, ceiling, True
        return baseline, incumbent, False

    def _probe_arms(self, segment, context: str,
                    incumbent_units: float
                    ) -> Dict[Configuration, float]:
        """Update per-(context, arm) reward from exact probes, under
        the call budget and the bound-interval skip rule."""
        probed: Dict[Configuration, float] = {}
        step_probes = 0
        # Priority order: best current evidence first, deterministic
        # label tie-break, so the budget spends where it matters.
        order = sorted(
            (arm for arm in self.arms
             if arm != self.current and arm != self.initial),
            key=lambda arm: (-self._reward.get((context, arm), 0.0),
                             arm.label))
        for arm in order:
            key = (context, arm)
            reward = self._reward.get(key, 0.0)
            switch_cost = self.provider.trans_cost(self.current, arm)
            # Wii-style interval pruning: an arm's one-step benefit is
            # at most the incumbent's whole cost (arm cost >= 0), so
            # if even that cannot lift it over the deployment
            # threshold the probe provably cannot flip this step's
            # choice — skip it unharmed (the reward only decays).
            if reward + incumbent_units <= \
                    self.gate.build_factor * switch_cost:
                self.stats.bound_skips += 1
                continue
            if self.gate.call_budget is not None and \
                    step_probes >= self.gate.call_budget:
                self.stats.budget_skips += 1
                continue
            step_probes += 1
            self.stats.probe_calls += 1
            units = self._exec_exact(segment, arm)
            if units is None:
                self.stats.degraded_probes += 1
                continue
            probed[arm] = units
            self._reward[key] = max(
                0.0, reward + (incumbent_units - units))
        self.stats.max_step_probes = max(self.stats.max_step_probes,
                                         step_probes)
        return probed

    def _maybe_switch(self, segment, obs: int, context: str,
                      incumbent_units: float,
                      probed: Dict[Configuration, float]) -> None:
        if obs - self._last_switch < self.gate.cooldown:
            return
        deployable: List[Configuration] = []
        for arm in self.arms:
            if arm == self.current:
                continue
            reward = self._reward.get((context, arm), 0.0)
            switch_cost = self.provider.trans_cost(self.current, arm)
            if reward > self.gate.build_factor * switch_cost:
                deployable.append(arm)
        if not deployable:
            return
        deployable.sort(
            key=lambda arm: (-self._reward.get((context, arm), 0.0),
                             arm.label))
        target = deployable[0]
        if len(deployable) > 1 and self.gate.epsilon > 0.0 and \
                self._rng.random() < self.gate.epsilon:
            target = self._rng.choice(deployable[1:])

        # --- the hard gate ---------------------------------------
        self.stats.gate_checks += 1
        switch_cost = self.provider.trans_cost(self.current, target)
        revert_cost = self.provider.trans_cost(target, self.initial)
        target_units = probed.get(target)
        if target_units is None:
            # No exact evidence for the target *this step* — gate on
            # the sound pessimistic bound instead; degraded data never
            # stands in.
            target_units = self._upper_bound(segment, target)
            self.stats.pessimistic_gates += 1
        regression_ok = target_units <= incumbent_units * \
            (1.0 + self.gate.regression_bound)
        ledger_ok = (self._debt + switch_cost + revert_cost <=
                     self.headroom)
        if not (regression_ok and ledger_ok):
            self.stats.gate_blocks += 1
            return

        reward = self._reward.get((context, target), 0.0)
        paid = self._materialize(segment, target, switch_cost)
        if paid is None:
            return  # deployment rolled all the way back
        landed, paid_units = paid
        self._trans_total += paid_units
        self._debt += paid_units
        self._decisions.append(BanditDecision(
            observation_index=obs,
            statement_index=segment.end,
            old=self.current, new=landed, context=context,
            reward=reward, switch_cost=paid_units))
        self.current = landed
        self._last_switch = obs
        self.stats.switches += 1
        # Fresh evidence for a fresh incumbent (anti-flapping).
        self._reward.clear()

    def _react(self, segment: PhaseSummary) -> None:
        """One observation under :class:`ReactiveRule`: charge the
        incumbent, cost every arm, fold each arm's decayed benefit,
        then adopt the best arm if it clears ``build_factor`` times
        its switch cost and the cooldown has passed."""
        obs = self._observation
        self._observation += 1
        self.stats.observations += 1
        baseline_units, incumbent_units, degraded = \
            self._step_estimates(segment)
        config = self.current
        self._assignments.extend([config] * len(segment))
        self._stayput += baseline_units
        self._exec_total += incumbent_units
        if config != self.initial:
            self._debt += incumbent_units - baseline_units
        costs = {self.initial: baseline_units, config: incumbent_units}
        for arm in self.arms:
            if not degraded and arm not in costs:
                self.stats.probe_calls += 1
                costs[arm] = self._exec_exact(segment, arm)
                degraded = costs[arm] is None
                self.stats.degraded_probes += degraded
        if degraded:
            self.stats.deferrals += 1
            return  # non-evidence: no benefit moves, no switch.

        target, best = None, 0.0
        for arm in self.arms:
            key = (_ONE_CONTEXT, arm)
            # Arms the incumbent serves better lose benefit; the floor
            # at zero keeps contrary evidence from digging a hole.
            benefit = self._reward[key] = max(
                0.0, self._reward.get(key, 0.0) * self.decay +
                (incumbent_units - costs[arm]))
            if arm != config and benefit > best:
                target, best = arm, benefit
        if target is None or obs - self._last_switch < self.gate.cooldown:
            return
        switch_cost = self.provider.trans_cost(config, target)
        if best <= self.gate.build_factor * switch_cost:
            return
        paid = self._materialize(segment, target, switch_cost)
        if paid is None:
            return
        landed, paid_units = paid
        self._trans_total += paid_units
        self._debt += paid_units
        self._decisions.append(BanditDecision(
            observation_index=obs, statement_index=segment.end,
            old=config, new=landed, context=_ONE_CONTEXT, reward=best,
            switch_cost=paid_units))
        self.current = landed
        self._last_switch = obs
        self.stats.switches += 1
        self._reward.clear()

    # ------------------------------------------------------------------
    # materialization
    # ------------------------------------------------------------------

    def _materialize(self, segment, target: Configuration,
                     switch_cost: float
                     ) -> Optional[Tuple[Configuration, float]]:
        """Land ``target``; returns ``(landed config, trans units
        paid)`` or ``None`` when a faulted deployment left nothing.

        With a database attached the transition runs as a scheduled,
        crash-safe deployment: a :class:`~repro.errors.
        TransitionError` is retried once by *resuming* the same plan
        (already-landed steps are skipped), and a second failure rolls
        back to whatever honestly landed.
        """
        if self.db is None or not hasattr(self.provider, "optimizer"):
            return target, switch_cost
        from .deployment import execute_deployment, schedule_deployment
        plan = schedule_deployment(self.provider, self.current,
                                   target, segment)
        for attempt in (1, 2):
            try:
                execute_deployment(self.db, plan)
                self.stats.deployments += 1
                return target, switch_cost
            except TransitionError:
                if attempt == 1:
                    continue
        self.stats.rollbacks += 1
        landed = Configuration(self.db.current_configuration())
        if landed == self.current:
            return None
        return landed, self.provider.trans_cost(self.current, landed)

    def _revert(self, segment, obs: int, context: str) -> None:
        """Fail-safe: return to the baseline design immediately (the
        reserved revert cost makes this always affordable)."""
        source = self.current
        paid = self._materialize(segment, self.initial,
                                 self.provider.trans_cost(
                                     source, self.initial))
        if paid is None:
            return
        landed, paid_units = paid
        self._trans_total += paid_units
        self._debt += paid_units
        self._decisions.append(BanditDecision(
            observation_index=obs, statement_index=segment.start,
            old=source, new=landed, context=context, reward=0.0,
            switch_cost=paid_units, fallback=True))
        self.current = landed
        self.stats.fallbacks += 1
        self._reward.clear()

    # ------------------------------------------------------------------
    # shift detection
    # ------------------------------------------------------------------

    def _maybe_reset_on_shift(self) -> None:
        """Reset evidence when the profile stream shows a new major
        shift: reward gathered for the old phase is stale, and
        clearing it re-arms the cooldown-free revert path."""
        if len(self._profiles) < 2 * self.shift_window:
            return
        report = self._shift_report = detect_shifts_from_profiles(
            self._profiles, window=self.shift_window,
            threshold=self.shift_threshold,
            previous=self._shift_report)
        fresh = [b for b in report.major_shifts
                 if b not in self._seen_shifts]
        if not fresh:
            return
        self._seen_shifts.update(fresh)
        self._reward.clear()
        self.stats.shift_resets += 1
