"""Seeded, deterministic fault injection for the engine and advisors.

A :class:`FaultInjector` evaluates a declarative :class:`FaultPlan` at
well-defined *sites* inside the engine:

=============  ====================================================
site           where the hook fires
=============  ====================================================
``page_read``  :meth:`BufferManager.read_page`, before any counter
               moves (a faulted read charges nothing)
``page_write`` :meth:`BufferManager.write_page`, same contract
``heap_load``  :meth:`HeapTable.bulk_load` entry
``index_build`` :meth:`Index._build` entry and once per
               ``BUILD_FAULT_CHUNK`` (54) sorted entries
``view_build`` :meth:`MaterializedView._build` entry
``estimate``   :meth:`WhatIfOptimizer.estimate_statement` entry
``deploy_step`` :meth:`Database.transition`, before every catalog
               step of any transition (``apply_configuration``,
               ``execute_deployment``) that is about to run, keyed by
               the step label, so a plan can crash *between* the
               individually-atomic creates and drops
=============  ====================================================

Faults come in three kinds: ``transient`` (raises
:class:`TransientStorageError`; recovers after ``duration``
consecutive failures of the same key, so bounded retries succeed),
``permanent`` (raises :class:`PermanentStorageError`; the key stays
dead for the injector's lifetime), and ``slow`` (no exception — adds
``latency_units`` to the metrics, modelling degraded I/O). At the
``estimate`` site the storage errors are translated into
:class:`EstimationUnavailable` with the matching ``retryable`` flag.

Everything is driven by one ``random.Random(seed)`` plus per-site call
counters, so a plan replays identically under the same seed — the
property the ``faultresilience`` verify family and the atomicity sweep
depend on. ``at_call`` fires a spec at one exact call index of its
site, which is how the sweep injects a fault at *every possible step*
of a build.

The default is no injector at all: every hook in the engine is guarded
by ``if injector is not None``, so the fault machinery costs nothing
when faults are off.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..errors import (EstimationUnavailable, PermanentStorageError,
                      StorageError, TransientStorageError)

#: Fault kinds.
TRANSIENT = "transient"
PERMANENT = "permanent"
SLOW = "slow"

#: Injection sites known to the engine.
SITES = ("page_read", "page_write", "heap_load", "index_build",
         "view_build", "estimate", "deploy_step")

_KINDS = (TRANSIENT, PERMANENT, SLOW)


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault rule.

    Attributes:
        site: where the rule applies (one of :data:`SITES`).
        kind: ``transient``, ``permanent`` or ``slow``.
        probability: per-call firing probability (ignored when
            ``at_call`` is set).
        at_call: fire exactly at this 0-based call index of the site
            (deterministic single-shot; the atomicity sweep's tool).
        latency_units: charge for ``slow`` faults.
        duration: for ``transient`` faults, how many consecutive
            accesses of the faulted key fail before it recovers.
        max_faults: cap on how many times this spec may fire
            (None = unlimited).
    """

    site: str
    kind: str = TRANSIENT
    probability: float = 0.0
    at_call: Optional[int] = None
    latency_units: float = 8.0
    duration: int = 1
    max_faults: Optional[int] = None

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(f"unknown fault site {self.site!r}; "
                             f"known sites: {SITES}")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.duration < 1:
            raise ValueError("duration must be >= 1")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable bundle of :class:`FaultSpec` rules."""

    specs: Tuple[FaultSpec, ...] = ()
    label: str = "plan"

    @property
    def transient_only(self) -> bool:
        """True when no spec can kill an operation for good (only
        transient and slow faults) — the class of plans whose runs
        must converge to the fault-free result."""
        return all(s.kind != PERMANENT for s in self.specs)

    @classmethod
    def none(cls) -> "FaultPlan":
        """A plan that never fires (useful for counting site calls)."""
        return cls(specs=(), label="none")

    @classmethod
    def single_shot(cls, site: str, at_call: int,
                    kind: str = PERMANENT) -> "FaultPlan":
        """Fire one fault at exactly call ``at_call`` of ``site``."""
        return cls(specs=(FaultSpec(site=site, kind=kind,
                                    at_call=at_call, max_faults=1),),
                   label=f"{kind}@{site}[{at_call}]")


@dataclass
class InjectionStats:
    """How often the injector actually fired (per kind)."""

    checks: int = 0
    transient: int = 0
    permanent: int = 0
    slow: int = 0

    @property
    def faults(self) -> int:
        """Fired faults that raised (slow ones only add latency)."""
        return self.transient + self.permanent


class FaultInjector:
    """Evaluates a :class:`FaultPlan` deterministically.

    Args:
        plan: the declarative fault rules.
        seed: seed for the probability draws; one injector = one
            ``random.Random`` stream, so the same (plan, seed) fires
            identically across runs.
    """

    def __init__(self, plan: FaultPlan, seed: int = 0):
        self.plan = plan
        self.seed = seed
        self._rng = random.Random(seed)
        self.stats = InjectionStats()
        #: Calls seen per site (0-based index of the *next* call).
        self.calls: Dict[str, int] = {site: 0 for site in SITES}
        self._by_site: Dict[str, List[Tuple[int, FaultSpec]]] = {}
        for spec_id, spec in enumerate(plan.specs):
            self._by_site.setdefault(spec.site, []).append(
                (spec_id, spec))
        self._fired: Dict[int, int] = {}
        # (spec_id, key) -> remaining consecutive transient failures.
        self._down: Dict[Tuple[int, object], int] = {}
        # (spec_id, key) pairs that are permanently dead.
        self._dead: Set[Tuple[int, object]] = set()

    # ------------------------------------------------------------------
    # site hooks
    # ------------------------------------------------------------------

    def on_page_read(self, page_id, metrics=None) -> None:
        self._check("page_read", page_id, metrics)

    def on_page_write(self, page_id, metrics=None) -> None:
        self._check("page_write", page_id, metrics)

    def on_build_step(self, site: str, label: str,
                      metrics=None) -> None:
        """Mid-build hook (``heap_load``/``index_build``/
        ``view_build``), keyed by the structure's label."""
        self._check(site, label, metrics)

    def on_deploy_step(self, label: str, metrics=None) -> None:
        """Transition hook: fires before each create/drop that
        :meth:`~repro.sqlengine.database.Database.transition` is about
        to run, keyed by the step label — the tool for crashing a
        transition *between* its atomic actions."""
        self._check("deploy_step", label, metrics)

    def on_estimate(self, key=None) -> None:
        """Estimation-site hook; storage faults become
        :class:`EstimationUnavailable`."""
        try:
            self._check("estimate", key, None)
        except TransientStorageError as exc:
            raise EstimationUnavailable(str(exc),
                                        retryable=True) from None
        except PermanentStorageError as exc:
            raise EstimationUnavailable(str(exc),
                                        retryable=False) from None

    # ------------------------------------------------------------------
    # core
    # ------------------------------------------------------------------

    def _check(self, site: str, key, metrics) -> None:
        call_index = self.calls[site]
        self.calls[site] = call_index + 1
        self.stats.checks += 1
        for spec_id, spec in self._by_site.get(site, ()):
            entry = (spec_id, key)
            if entry in self._dead:
                self.stats.permanent += 1
                raise PermanentStorageError(
                    f"injected permanent fault at {site} "
                    f"(key={key!r}, dead)")
            remaining = self._down.get(entry)
            if remaining is not None:
                if remaining > 1:
                    self._down[entry] = remaining - 1
                else:
                    del self._down[entry]
                self.stats.transient += 1
                raise TransientStorageError(
                    f"injected transient fault at {site} "
                    f"(key={key!r}, recovering)")
            if spec.at_call is not None:
                fire = call_index == spec.at_call
            else:
                fire = spec.probability > 0 and \
                    self._rng.random() < spec.probability
            if not fire:
                continue
            if spec.max_faults is not None and \
                    self._fired.get(spec_id, 0) >= spec.max_faults:
                continue
            self._fired[spec_id] = self._fired.get(spec_id, 0) + 1
            if spec.kind == SLOW:
                self.stats.slow += 1
                if metrics is not None:
                    metrics.latency_units += spec.latency_units
                continue
            if spec.kind == TRANSIENT:
                if spec.duration > 1:
                    self._down[entry] = spec.duration - 1
                self.stats.transient += 1
                raise TransientStorageError(
                    f"injected transient fault at {site} "
                    f"(key={key!r})")
            self._dead.add(entry)
            self.stats.permanent += 1
            raise PermanentStorageError(
                f"injected permanent fault at {site} (key={key!r})")


def random_fault_plan(seed: int,
                      transient_only: bool = True) -> FaultPlan:
    """A small randomized plan for the chaos harness.

    Deterministic in ``seed``. With ``transient_only`` the plan draws
    only transient and slow faults (the convergence class); otherwise
    a permanent estimate fault may be included to exercise the
    degradation ladder.
    """
    rng = random.Random(seed)
    specs: List[FaultSpec] = []
    specs.append(FaultSpec("page_read", TRANSIENT,
                           probability=rng.uniform(0.002, 0.02),
                           duration=rng.choice((1, 1, 2))))
    specs.append(FaultSpec("page_write", TRANSIENT,
                           probability=rng.uniform(0.002, 0.02),
                           duration=1))
    if rng.random() < 0.5:
        specs.append(FaultSpec("page_read", SLOW,
                               probability=rng.uniform(0.005, 0.05),
                               latency_units=rng.choice(
                                   (2.0, 4.0, 8.0))))
    specs.append(FaultSpec("estimate", TRANSIENT,
                           probability=rng.uniform(0.01, 0.05),
                           duration=1))
    if not transient_only and rng.random() < 0.7:
        specs.append(FaultSpec("estimate", PERMANENT,
                               probability=rng.uniform(0.05, 0.2)))
    kind = "transient" if transient_only else "mixed"
    return FaultPlan(specs=tuple(specs),
                     label=f"random[{kind},seed={seed}]")
