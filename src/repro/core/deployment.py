r"""Deployment scheduling: *when* each create/drop of a transition runs.

The paper treats TRANS(C1, C2) as an unordered, instantaneous charge.
"Optimizing Index Deployment Order" (PAPERS.md) observes that a real
transition is a *sequence* of individually-atomic steps, and that the
workload keeps running while each step executes — so the order of the
steps changes the total cost: building the most useful index first
lets every remaining build (and the concurrent queries) run against a
better intermediate design.

The model here follows that observation with the repo's own cost
units. A transition from ``source`` to ``target`` is the action set
``A`` = creates ∪ drops. A schedule is a permutation ``a_1..a_n``; the
intermediate configurations are ``C_0 = source`` and
``C_i = C_{i-1} ∘ a_i``. Each action's *duration* is proportional to
its own TRANS cost, so with ``w_i = trans(a_i) / Σ trans`` the
schedule's cost is::

    cost(π) = Σ trans(a_i)  +  Σ  EXEC(W, C_{i-1}) · w_i
              \__________/      \______________________/
           order-invariant      the concurrent workload W runs
                                against the design of the moment

Only the second sum depends on the order, and that is what the
schedulers minimize:

* **exact** — a Held-Karp subset DP (the configuration after a set of
  done actions is a pure function of the set), used when ``n`` is at
  most ``exact_limit``;
* **greedy** — repeatedly take the feasible action with the best
  rate of improvement ``(EXEC(C) - EXEC(C ∘ a)) / w_a``, then keep
  the better of the greedy schedule and the catalog's default order
  (:func:`~repro.sqlengine.database.transition_steps`: sorted drops,
  then sorted creates), so the result is never worse than the
  unscheduled transition.

An idle system (no concurrent segment) gets the default order: every
order costs the same there, and that one always fits when both
endpoints do, because sizes are additive.

A ``space_bound_bytes`` makes the schedule *constrained*: every
intermediate configuration must fit, which is precisely why drop-vs-
create interleaving matters (drop first to make room, or build first
to keep serving — the bound decides).

Execution (:func:`execute_deployment`) checks the plan against the
live catalog and hands its steps to
:meth:`~repro.sqlengine.database.Database.transition`, the one
catalog-step executor ``apply_configuration`` also runs through: each
build is crash-safe, and steps whose effect is already in the catalog
are skipped, so re-running a plan after a mid-schedule
:class:`~repro.errors.TransitionError` picks up where it stopped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import DesignError, InfeasibleProblemError
from ..sqlengine.database import (CREATE, DROP, TransitionReport,
                                  transition_steps)
from ..sqlengine.index import structure_sort_key
from .structures import Configuration

__all__ = [
    "DeploymentPlan", "DeploymentStep", "execute_deployment",
    "schedule_deployment",
]

#: Largest action count the exact subset DP is attempted for
#: (2^n states; 10 keeps it comfortably in the milliseconds).
DEFAULT_EXACT_LIMIT = 10


@dataclass(frozen=True)
class DeploymentStep:
    """One scheduled catalog action.

    Attributes:
        action: ``"create"`` or ``"drop"``.
        definition: the structure (``IndexDef``/``ViewDef``) acted on.
        trans_units: the action's own TRANS cost.
        exec_rate: the concurrent workload's EXEC rate while this step
            runs — i.e. under the configuration *before* the step.
    """

    action: str
    definition: object
    trans_units: float
    exec_rate: float

    @property
    def label(self) -> str:
        return f"{self.action} {self.definition.label}"


@dataclass(frozen=True)
class DeploymentPlan:
    """An ordered transition from ``source`` to ``target``.

    ``total_units = trans_units + exec_units``; only ``exec_units``
    (the workload-under-intermediate-designs term) depends on the
    step order. ``method`` records which scheduler produced the order
    (``exact``, ``greedy``, or ``default`` when the fallback won).
    """

    source: Configuration
    target: Configuration
    steps: Tuple[DeploymentStep, ...]
    method: str
    trans_units: float
    exec_units: float

    @property
    def total_units(self) -> float:
        return self.trans_units + self.exec_units

    def configurations(self) -> Tuple[Configuration, ...]:
        """``C_0 .. C_n``: every intermediate design, endpoints
        included (``C_0 = source``, ``C_n = target``)."""
        configs = [self.source]
        for step in self.steps:
            configs.append(_apply(configs[-1], step.action,
                                  step.definition))
        return tuple(configs)

    def describe(self) -> str:
        lines = [f"deployment {self.source.label} -> "
                 f"{self.target.label} ({self.method}, "
                 f"{len(self.steps)} steps, "
                 f"total {self.total_units:.2f} units = "
                 f"{self.trans_units:.2f} trans + "
                 f"{self.exec_units:.2f} concurrent exec)"]
        for i, step in enumerate(self.steps, start=1):
            lines.append(f"  {i}. {step.label}  "
                         f"trans={step.trans_units:.2f}  "
                         f"exec_rate={step.exec_rate:.2f}")
        return "\n".join(lines)


def schedule_deployment(
        service, source: Configuration, target: Configuration,
        segment=None, *,
        exact_limit: int = DEFAULT_EXACT_LIMIT,
        space_bound_bytes: Optional[int] = None) -> DeploymentPlan:
    """Order the creates/drops of ``source -> target``.

    Args:
        service: a :class:`~repro.core.costservice.CostService`; its
            signature-keyed caches make the many intermediate-
            configuration EXEC rates cheap (most differ only in
            structures irrelevant to most templates).
        source: the currently-materialized design.
        target: the design to reach.
        segment: the workload running concurrently with the
            deployment (any cost unit ``service.exec_cost`` accepts);
            ``None`` means an idle system, where every order costs the
            same and the default order (method ``default``) is
            returned.
        exact_limit: largest action count for the exact subset DP;
            larger transitions use greedy-vs-default.
        space_bound_bytes: optional bound every intermediate
            configuration must fit in (the constrained variant).

    Raises:
        InfeasibleProblemError: the endpoints violate the bound, or
            no feasible order exists under it.
    """
    actions = transition_steps(source.structures, target.structures)
    rate = _rate_fn(service, segment)
    trans = {action: _action_trans_units(service, source, action)
             for action in actions}
    size_ok = _size_gate(service, space_bound_bytes)
    if not size_ok(source) or not size_ok(target):
        raise InfeasibleProblemError(
            f"deployment endpoints exceed the space bound "
            f"{space_bound_bytes}: source {source.label}, "
            f"target {target.label}")
    if not actions:
        return DeploymentPlan(source=source, target=target, steps=(),
                              method="default", trans_units=0.0,
                              exec_units=0.0)
    total_trans = sum(trans[action] for action in actions)

    orders: List[Tuple[str, Optional[Sequence[Tuple[str, object]]]]] = []
    if segment is not None:
        if len(actions) <= exact_limit:
            orders.append(("exact", _exact_order(
                source, actions, trans, total_trans, rate, size_ok)))
        orders.append(("greedy", _greedy_order(
            source, actions, trans, rate, size_ok)))
    if _order_feasible(source, actions, size_ok):
        orders.append(("default", actions))

    best: Optional[DeploymentPlan] = None
    for method, order in orders:
        if order is None:
            continue
        plan = _plan_for(source, target, order, trans, total_trans,
                         rate, method)
        if best is None or plan.total_units < best.total_units:
            best = plan
    if best is None:
        raise InfeasibleProblemError(
            f"no feasible deployment order from {source.label} to "
            f"{target.label} under space bound {space_bound_bytes}")
    return best


def execute_deployment(db, plan: DeploymentPlan) -> TransitionReport:
    """Run a plan's steps, in order, through ``db.transition``.

    The plan must start from the live catalog (up to the structures
    it drops itself, which a resumed run has already dropped). Steps
    whose effect is already in the catalog are skipped, so the same
    plan can be re-executed to *resume* after a mid-schedule
    :class:`~repro.errors.TransitionError`, whose ``report`` holds the
    partial run (a failed build leaves no trace, and everything
    executed before it stands). With a fault injector attached, the
    ``deploy_step`` site fires before every step that is about to run.

    Raises:
        DesignError: a structure the plan keeps is not materialized.
    """
    current = Configuration(db.current_configuration())
    # Source structures the plan itself drops are legitimately absent
    # on a resumed run; everything else the plan assumed must be live.
    dropped_by_plan = {step.definition for step in plan.steps
                       if step.action == DROP}
    required = plan.source.structures - dropped_by_plan
    if required - current.structures:
        missing = ", ".join(
            d.label for d in sorted(
                required - current.structures,
                key=structure_sort_key))
        raise DesignError(
            f"deployment plan was scheduled from {plan.source.label} "
            f"but {missing} is not materialized; reschedule from the "
            f"live catalog")
    return db.transition([(step.action, step.definition)
                          for step in plan.steps])


# ----------------------------------------------------------------------
# scheduling internals
# ----------------------------------------------------------------------

def _apply(config: Configuration, action: str,
           definition) -> Configuration:
    if action == CREATE:
        return config.with_structure(definition)
    return config.without_structure(definition)


def _action_trans_units(service, source: Configuration,
                        action: Tuple[str, object]) -> float:
    """TRANS cost of one action in isolation (builds price geometry,
    drops the flat catalog charge — independent of the rest of the
    configuration, so any anchor config gives the same number)."""
    kind, definition = action
    if kind == CREATE:
        return service.optimizer.transition_units((), (definition,))
    return service.optimizer.transition_units((definition,), ())


def _rate_fn(service, segment) -> Callable[[Configuration], float]:
    if segment is None:
        return lambda config: 0.0
    cache = {}

    def rate(config: Configuration) -> float:
        units = cache.get(config)
        if units is None:
            units = cache[config] = service.exec_cost(segment, config)
        return units

    return rate


def _size_gate(service, space_bound_bytes: Optional[int]
               ) -> Callable[[Configuration], bool]:
    if space_bound_bytes is None:
        return lambda config: True
    optimizer = service.optimizer

    def fits(config: Configuration) -> bool:
        return optimizer.configuration_size_bytes(
            config.structures) <= space_bound_bytes

    return fits


def _order_feasible(source: Configuration,
                    order: Sequence[Tuple[str, object]],
                    size_ok) -> bool:
    config = source
    for action, definition in order:
        config = _apply(config, action, definition)
        if not size_ok(config):
            return False
    return True


def _plan_for(source: Configuration, target: Configuration,
              order: Sequence[Tuple[str, object]], trans, total_trans,
              rate, method: str) -> DeploymentPlan:
    steps: List[DeploymentStep] = []
    exec_units = 0.0
    config = source
    for action in order:
        kind, definition = action
        exec_rate = rate(config)
        steps.append(DeploymentStep(action=kind,
                                    definition=definition,
                                    trans_units=trans[action],
                                    exec_rate=exec_rate))
        exec_units += exec_rate * (trans[action] / total_trans)
        config = _apply(config, kind, definition)
    return DeploymentPlan(source=source, target=target,
                          steps=tuple(steps), method=method,
                          trans_units=total_trans,
                          exec_units=exec_units)


def _exact_order(source: Configuration,
                 actions: Tuple[Tuple[str, object], ...],
                 trans, total_trans, rate, size_ok
                 ) -> Optional[Tuple[Tuple[str, object], ...]]:
    """Held-Karp over done-subsets: the configuration after a subset
    of actions is a pure function of the subset, so the DP state is
    the subset alone — O(2^n · n)."""
    n = len(actions)
    configs: List[Optional[Configuration]] = [None] * (1 << n)
    configs[0] = source
    best: List[float] = [float("inf")] * (1 << n)
    best[0] = 0.0
    parent: List[Optional[int]] = [None] * (1 << n)
    # Subsets in increasing popcount order so predecessors are final.
    by_popcount = sorted(range(1 << n), key=_popcount)
    for subset in by_popcount:
        if subset == 0:
            continue
        for i in range(n):
            bit = 1 << i
            if not subset & bit:
                continue
            prev = subset & ~bit
            if best[prev] == float("inf"):
                continue
            prev_config = configs[prev]
            next_config = configs[subset]
            if next_config is None:
                next_config = _apply(prev_config, *actions[i])
                if not size_ok(next_config):
                    continue
                configs[subset] = next_config
            action = actions[i]
            cost = best[prev] + rate(prev_config) * (
                trans[action] / total_trans)
            if cost < best[subset]:
                best[subset] = cost
                parent[subset] = i
    full = (1 << n) - 1
    if best[full] == float("inf"):
        return None
    order: List[Tuple[str, object]] = []
    subset = full
    while subset:
        i = parent[subset]
        order.append(actions[i])
        subset &= ~(1 << i)
    order.reverse()
    return tuple(order)


def _greedy_order(source: Configuration,
                  actions: Tuple[Tuple[str, object], ...],
                  trans, rate, size_ok
                  ) -> Optional[Tuple[Tuple[str, object], ...]]:
    """Rate-of-improvement greedy: at each step take the feasible
    action with the largest ``(EXEC(C) - EXEC(C∘a)) / w_a`` (ties go
    to the deterministic action order)."""
    remaining = list(actions)
    config = source
    order: List[Tuple[str, object]] = []
    while remaining:
        current_rate = rate(config)
        best_action = None
        best_score = None
        best_next = None
        for action in remaining:
            next_config = _apply(config, *action)
            if not size_ok(next_config):
                continue
            duration = max(trans[action], 1e-12)
            score = (current_rate - rate(next_config)) / duration
            if best_score is None or score > best_score:
                best_action, best_score = action, score
                best_next = next_config
        if best_action is None:
            return None
        order.append(best_action)
        remaining.remove(best_action)
        config = best_next
    return tuple(order)


def _popcount(value: int) -> int:
    return bin(value).count("1")
