"""An online physical design tuner — the related-work baseline.

The paper positions its *offline* constrained approach against online
tuners (Bruno & Chaudhuri's ICDE'07 line of work, Section 1/7): an
online mechanism sees only the past and must react, while the offline
optimizer sees the whole representative trace in advance. This module
implements a faithful small online tuner so the two philosophies can
be compared inside one framework:

* every statement is costed under the empty design and under each
  candidate single-index design (what-if calls, like the real systems);
* each candidate accumulates exponentially decayed *benefit* (cost it
  would have saved); materialized indexes accumulate decayed *utility*
  (cost they actually saved);
* when a candidate's accumulated benefit exceeds its build cost by a
  configurable factor — and beats the incumbent's recent utility — the
  tuner switches to it (paying the build).

The tuner is deliberately reactive: on workloads with recurring phases
it re-pays index builds at every phase boundary and lags each shift by
however long the evidence takes to accumulate — exactly the behaviour
that motivates doing the optimization offline when a trace is
available (see ``repro experiment online``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..errors import DesignError, EstimationUnavailable
from ..sqlengine.index import IndexDef, structure_sort_key
from ..workload.model import Statement
from ..workload.segmentation import Segment
from .costmatrix import CostProvider
from .design import DesignSequence
from .structures import Configuration, EMPTY_CONFIGURATION

#: Costing-delta keys that are running totals, not per-span counters —
#: merging spans keeps the latest value instead of summing.
_COSTING_TOTALS = ("unique_templates", "unique_signatures")


def merge_costing(total: Optional[Dict[str, object]],
                  delta: Dict[str, object]) -> Dict[str, object]:
    """Fold one run's costing delta into an accumulated total.

    Counter fields add; the distinct-key totals keep the later value;
    the derived ``cache_hit_rate`` is recomputed from the merged call
    counters so it reflects the whole accumulated span.
    """
    if total is None:
        return dict(delta)
    merged = dict(total)
    for key, value in delta.items():
        if key in _COSTING_TOTALS:
            merged[key] = value
        elif key == "cache_hit_rate":
            continue
        else:
            merged[key] = merged.get(key, 0) + value
    calls = merged.get("whatif_calls", 0)
    avoided = merged.get("whatif_calls_avoided", 0)
    requests = calls + avoided
    merged["cache_hit_rate"] = (avoided / requests) if requests else 0.0
    return merged


@dataclass(frozen=True)
class OnlineDecision:
    """One design change made by the tuner."""

    statement_index: int
    old: Configuration
    new: Configuration
    accumulated_benefit: float
    build_cost: float


@dataclass
class OnlineResult:
    """Outcome of an online tuning run.

    Attributes:
        design: the per-statement design sequence actually used.
        total_cost: exec cost under the used designs + all transition
            costs paid along the way.
        exec_cost / trans_cost: the split.
        decisions: every change, with the evidence that triggered it.
        costing: cost-estimation instrumentation for the run (what-if
            calls, cache hits, wall time) when the tuner's provider is
            a :class:`~repro.core.costservice.CostService`; online
            tuning is the heaviest scalar consumer — one estimate per
            candidate per statement — so the service's template cache
            matters most here. Like every other field, this covers the
            whole *accumulated* run: a resumed call
            (``run(reset=False)``) merges its counter movement into
            the previous calls' instead of re-reporting only the tail.
        deferrals: statements at which the tuner refused to update its
            evidence or change designs because estimates were
            unavailable or served degraded (a degraded estimate is
            never treated as exact evidence).
        safety: the tuner's self-protection counters, split by cause —
            ``{"deferrals", "unavailable_deferrals",
            "degraded_deferrals"}`` — reported alongside ``costing``
            and, like it, cumulative across resumed runs.
    """

    design: DesignSequence
    total_cost: float
    exec_cost: float
    trans_cost: float
    decisions: List[OnlineDecision]
    costing: Optional[Dict[str, object]] = None
    deferrals: int = 0
    safety: Optional[Dict[str, object]] = None

    @property
    def change_count(self) -> int:
        return len(self.decisions)


class OnlineTuner:
    """A reactive single-index online tuner.

    Args:
        candidates: candidate indexes (the design space, as in the
            offline problem).
        provider: cost provider for what-if estimates and build costs.
        decay: per-statement exponential decay of accumulated evidence
            (the sliding-window analogue; 0.9-0.99 typical).
        build_factor: a candidate must accumulate
            ``build_factor x build cost`` of benefit before the tuner
            materializes it (hysteresis against oscillation).
        cooldown: minimum number of statements between two design
            changes (real online tuners throttle reconfiguration).
        initial: starting configuration.
    """

    def __init__(self, candidates: Sequence[IndexDef],
                 provider: CostProvider, decay: float = 0.95,
                 build_factor: float = 2.0, cooldown: int = 50,
                 initial: Configuration = EMPTY_CONFIGURATION):
        if not candidates:
            raise DesignError("online tuner needs candidate indexes")
        if not 0.0 < decay <= 1.0:
            raise DesignError("decay must be in (0, 1]")
        if build_factor <= 0:
            raise DesignError("build_factor must be positive")
        if cooldown < 0:
            raise DesignError("cooldown must be >= 0")
        self.candidates = sorted(set(candidates),
                                 key=structure_sort_key)
        self.provider = provider
        self.decay = decay
        self.build_factor = build_factor
        self.cooldown = cooldown
        self.initial = initial
        self._configs: Dict[IndexDef, Configuration] = {
            d: Configuration({d}) for d in self.candidates}
        self.reset()

    def reset(self) -> None:
        """Forget everything: evidence, position, and partial-run
        accumulators. ``run(..., reset=True)`` calls this; a resumed
        run (``reset=False``) deliberately does not."""
        self.current = self.initial
        self._benefit: Dict[IndexDef, float] = {
            d: 0.0 for d in self.candidates}
        self._last_change = -10 ** 9
        self._position = 0
        self._assignments: List[Configuration] = []
        self._decisions: List[OnlineDecision] = []
        self._exec_cost = 0.0
        self._trans_cost = 0.0
        self._deferrals = 0
        self._unavailable_deferrals = 0
        self._degraded_deferrals = 0
        # Accumulated costing across resumed runs (None until the
        # first run of a provider that supports snapshots completes).
        self._costing_total: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------

    def run(self, statements: Sequence[Statement],
            reset: bool = True) -> OnlineResult:
        """Tune over a statement stream.

        With ``reset=False`` the call *resumes* a previous run:
        evidence, the current design, the cooldown clock, and the
        change count all continue from where the last call stopped, so
        an interrupted stream processed in two halves produces exactly
        the decisions (and pays exactly the transitions) of one
        uninterrupted run — transitions are never double-counted. The
        returned result always covers the whole accumulated run.
        """
        if reset:
            self.reset()
        snapshot = None
        if callable(getattr(self.provider, "stats_snapshot", None)):
            snapshot = self.provider.stats_snapshot()
        for offset, statement in enumerate(statements):
            i = self._position + offset
            config = self.current
            self._assignments.append(config)
            segment = Segment((statement,), start=i)
            try:
                self._exec_cost += self.provider.exec_cost(segment,
                                                           config)
            except EstimationUnavailable:
                # The statement still ran under the current design
                # (the assignment stands) but its cost is unknowable
                # right now; defer the whole observation.
                self._deferrals += 1
                self._unavailable_deferrals += 1
                continue
            decision = self._observe(segment, i)
            if decision is not None:
                self._decisions.append(decision)
                self._trans_cost += self.provider.trans_cost(
                    decision.old, decision.new)
        self._position += len(statements)
        if not self._assignments:
            raise DesignError("empty statement stream")
        return self._result(snapshot)

    # ------------------------------------------------------------------

    def _result(self, snapshot) -> OnlineResult:
        """Build the whole-accumulated-run result, folding this call's
        costing delta into the running total so resumed runs report
        the same cumulative span that costs and deferrals already do.
        """
        design = DesignSequence(self.initial, list(self._assignments))
        if snapshot is not None:
            self._costing_total = merge_costing(
                self._costing_total,
                self.provider.stats_delta(snapshot))
        costing = None if self._costing_total is None \
            else dict(self._costing_total)
        safety: Dict[str, object] = {
            "deferrals": self._deferrals,
            "unavailable_deferrals": self._unavailable_deferrals,
            "degraded_deferrals": self._degraded_deferrals,
        }
        return OnlineResult(design=design,
                            total_cost=self._exec_cost +
                            self._trans_cost,
                            exec_cost=self._exec_cost,
                            trans_cost=self._trans_cost,
                            decisions=list(self._decisions),
                            costing=costing,
                            deferrals=self._deferrals,
                            safety=safety)

    def _provider_degraded(self) -> int:
        """The provider's degraded-estimate counter (0 when the
        provider has no degradation instrumentation)."""
        stats = getattr(self.provider, "stats", None)
        return getattr(stats, "degraded_estimates", 0)

    def _observe(self, segment,
                 index_in_stream: int) -> Optional[OnlineDecision]:
        """Update evidence with one observation unit (a
        single-statement segment); maybe switch designs.

        Degradation guard: every cost this step needs is computed
        *before* any evidence moves. If estimation is unavailable, or
        the provider served any of these estimates degraded (its
        ``degraded_estimates`` counter advanced), the whole
        observation is deferred — no accumulator update, no design
        change — because degraded estimates must never masquerade as
        exact evidence.
        """
        degraded_before = self._provider_degraded()
        try:
            baseline = self.provider.exec_cost(segment, self.current)
            candidate_cost = {
                definition: self.provider.exec_cost(
                    segment, self._configs[definition])
                for definition in self.candidates}
        except EstimationUnavailable:
            self._deferrals += 1
            self._unavailable_deferrals += 1
            return None
        if self._provider_degraded() != degraded_before:
            self._deferrals += 1
            self._degraded_deferrals += 1
            return None
        best_candidate: Optional[IndexDef] = None
        best_benefit = 0.0
        for definition in self.candidates:
            config = self._configs[definition]
            saved = baseline - candidate_cost[definition]
            # Statements the incumbent serves better count *against*
            # the candidate (hysteresis); the accumulator is floored
            # at zero so contrary evidence can't build an infinite
            # hole.
            self._benefit[definition] = max(
                0.0, self._benefit[definition] * self.decay + saved)
            if config != self.current and \
                    self._benefit[definition] > best_benefit:
                best_benefit = self._benefit[definition]
                best_candidate = definition
        if best_candidate is None:
            return None
        if index_in_stream - self._last_change < self.cooldown:
            return None
        target = self._configs[best_candidate]
        switch_cost = self.provider.trans_cost(self.current, target)
        if best_benefit <= self.build_factor * switch_cost:
            return None
        decision = OnlineDecision(
            statement_index=index_in_stream, old=self.current,
            new=target, accumulated_benefit=best_benefit,
            build_cost=switch_cost)
        self.current = target
        self._last_change = index_in_stream
        # Fresh evidence for a fresh design (prevents instant flapping).
        for definition in self.candidates:
            self._benefit[definition] = 0.0
        return decision
