"""CostService: batched, instrumented cost estimation for the advisors.

Advisor runtime is dominated by what-if cost estimation (the paper's
Figure 4 measures exactly this). :class:`CostService` puts that work
behind the :class:`~repro.core.costmatrix.CostProvider` protocol and
adds:

* **a batch API** — :meth:`exec_matrix` / :meth:`trans_matrix`
  deduplicate statements by :class:`~repro.sqlengine.whatif.
  StatementTemplate` (same AST shape + table + columns, constants
  folded into the exact selectivities they induce) before touching
  the what-if optimizer, then expand per-template costs back to the
  per-segment axis with NumPy — one cumulative sum per unit, which
  is the canonical left fold. The resulting matrices are
  bit-identical to the serial path's. The service hands the
  optimizer the workload statement itself, not its AST, so a
  statement whose shape has a key plan is never parsed
  (:meth:`~repro.sqlengine.whatif.WhatIfOptimizer.
  statement_template`).

* **a two-tier exact cache** — per template, by configuration
  (constants-blind) and by relevance signature: the subset of a
  configuration's structures that can possibly affect the template's
  plan; every configuration identical on that subset shares one
  bit-identical estimate. Whether a structure serves a template is a
  fact about that pair, so a batch derives one *row* of signatures
  per template (:meth:`~repro.sqlengine.whatif.WhatIfOptimizer.
  relevance_signatures`), not one per cell. This is the CoPhy-style
  *atomic cost decomposition*: what-if work drops from
  O(templates x |C|) to O(templates x relevant subsets). Scalar
  calls resolve ``sql -> template -> configuration`` through the
  same tiers, one signature at a time.

* **instrumentation** — :class:`CostEstimationStats` counts what-if
  calls issued vs avoided, per-tier cache hits (template /
  signature), batch sizes, and wall time per phase. Advisors
  snapshot/delta these counters into
  ``Recommendation.stats["costing"]``; the ``repro costs`` CLI
  subcommand prints them.

Costing units are either raw :class:`~repro.workload.segmentation.
Segment` s or compressed :class:`~repro.workload.summary.PhaseSummary`
phases; both reduce to ``(statement, weight)`` atoms
(:func:`~repro.workload.summary.atoms_of`), and every EXEC path —
scalar, batch, serial provider — accumulates the same canonical
left-fold ``total += weight x unit_cost`` over atoms in
first-appearance order. Swapping a :class:`~repro.core.costmatrix.
WhatIfCostProvider` for a :class:`CostService`, or a raw trace for
its summary, never changes a single matrix entry — only how many
optimizer calls (and how much per-statement bookkeeping) it took to
fill them. A fault injector changes none of this: the degradation
ladder runs once per (template, signature) group, and a degraded
answer fills its group for that batch without entering either exact
tier.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import EstimationUnavailable
from ..faults.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from ..sqlengine.whatif import StatementTemplate, WhatIfOptimizer
from ..workload.summary import CostUnit, atoms_of, columns_of
from .structures import Configuration


#: Atoms per block of :meth:`CostService.exec_matrix`'s row fold.
_FOLD_BLOCK = 1024


class _TemplateRow(dict):
    """One template's exact estimates, ``{configuration: units}``,
    carrying the template they price. Every SQL text of the template
    maps to the same row, so the scalar route reaches a text's
    estimates in one lookup by text and never hashes a template key."""

    __slots__ = ("template",)

    def __init__(self, template: StatementTemplate):
        super().__init__()
        self.template = template


@dataclass
class CostEstimationStats:
    """Counters for one :class:`CostService` (monotone within a stats
    epoch; snapshot/delta them to meter a single advisor run).

    Attributes:
        whatif_calls: estimates actually issued to the optimizer.
        whatif_calls_avoided: statement estimates served without an
            optimizer call (any cache level, batch or scalar path).
        template_hits: hits in the ``(template, config)`` cache.
        signature_hits: hits in the ``(template, signature)`` cache
            — estimates reused across configurations that agree on the
            template's relevant structure subset.
        signature_fills: additional matrix cells filled from an
            estimate issued for *another* configuration sharing the
            signature within the same batch (in-batch sharing; the
            cross-batch reuse shows up as ``signature_hits``).
        trans_calls / trans_cache_hits: TRANS estimates issued/served.
        size_calls / size_cache_hits: SIZE estimates issued/served.
        batch_calls: :meth:`CostService.exec_matrix` invocations.
        batched_statements: statement instances covered by batches.
        batched_templates: summed per-batch unique-template counts
            (``batched_statements / batched_templates`` is the mean
            dedup factor).
        unique_templates: distinct templates seen so far.
        unique_signatures: distinct ``(template, signature)`` pairs
            seen so far — the true size of the decomposed estimation
            space (compare against
            ``unique_templates x configurations``).
        exec_seconds / trans_seconds: wall time in EXEC / TRANS
            estimation (cache management included).
        estimate_faults: :class:`EstimationUnavailable` raised by the
            optimizer (injected timeouts/failures).
        estimate_retries: immediate re-attempts of transient
            estimation faults.
        degraded_estimates: estimates served *degraded* (stale epoch
            or upper bound) instead of exact. Consumers must never
            treat these as exact; the online tuner watches this
            counter to defer design changes.
        stale_fallbacks / upper_bound_fallbacks: which rung of the
            degradation ladder resolved each newly degraded
            (template, signature) group, estimated against the
            group's first configuration.
    """

    whatif_calls: int = 0
    whatif_calls_avoided: int = 0
    template_hits: int = 0
    signature_hits: int = 0
    signature_fills: int = 0
    trans_calls: int = 0
    trans_cache_hits: int = 0
    size_calls: int = 0
    size_cache_hits: int = 0
    batch_calls: int = 0
    batched_statements: int = 0
    batched_templates: int = 0
    unique_templates: int = 0
    unique_signatures: int = 0
    exec_seconds: float = 0.0
    trans_seconds: float = 0.0
    estimate_faults: int = 0
    estimate_retries: int = 0
    degraded_estimates: int = 0
    stale_fallbacks: int = 0
    upper_bound_fallbacks: int = 0

    @property
    def exec_requests(self) -> int:
        """Statement-level EXEC estimates requested (served + issued)."""
        return self.whatif_calls + self.whatif_calls_avoided

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of EXEC requests served without an optimizer call."""
        requests = self.exec_requests
        if requests == 0:
            return 0.0
        return self.whatif_calls_avoided / requests

    def snapshot(self) -> "CostEstimationStats":
        return replace(self)

    def delta(self, earlier: "CostEstimationStats"
              ) -> "CostEstimationStats":
        """Counter difference ``self - earlier`` (for metering a span)."""
        changes = {f.name: getattr(self, f.name) - getattr(earlier, f.name)
                   for f in fields(self)}
        # Counter totals, not differences: distinct keys known now.
        changes["unique_templates"] = self.unique_templates
        changes["unique_signatures"] = self.unique_signatures
        return CostEstimationStats(**changes)

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {f.name: getattr(self, f.name)
                                  for f in fields(self)}
        out["cache_hit_rate"] = self.cache_hit_rate
        return out


class CostService:
    """Batched, cached, instrumented cost estimation.

    Implements the :class:`~repro.core.costmatrix.CostProvider`
    protocol (``exec_cost`` / ``trans_cost`` / ``size_bytes``) so it
    drops in anywhere a provider is accepted, and adds the batch
    entry points ``exec_matrix`` / ``trans_matrix`` that
    :func:`~repro.core.costmatrix.build_cost_matrices` routes through
    automatically.

    Args:
        optimizer: the engine's what-if optimizer.
        retry_policy: how often a transient estimation fault is
            retried before the degradation ladder takes over.
    """

    def __init__(self, optimizer: WhatIfOptimizer,
                 retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY):
        self.optimizer = optimizer
        self.retry_policy = retry_policy
        self.stats = CostEstimationStats()
        self._stats_epoch = optimizer.stats_epoch
        # Exact estimates, template first: {template key:
        # {configuration: units}}; _row opens a template's row and
        # files it under each SQL text of the template.
        self._template_units: Dict[Tuple, _TemplateRow] = {}
        self._row_by_sql: Dict[str, _TemplateRow] = {}
        # Transition estimates, one row per source: {old: {new:
        # units}}, so a cached pair costs no key object.
        self._trans_cache: Dict[Configuration,
                                Dict[Configuration, float]] = {}
        self._size_cache: Dict[Configuration, int] = {}
        # Atomic cost decomposition, same layout: {template key:
        # {relevance signature: units}}; _signature_keys: pairs seen.
        self._signature_units: Dict[Tuple, Dict[Tuple, float]] = {}
        self._signature_keys: set = set()
        # Degradation ladder state. _stale_units keeps the last known
        # exact value (the layout of _template_units) across epoch
        # invalidations — rung 2 of the ladder. _degraded_units pins
        # degraded answers for within-epoch determinism; it is a
        # separate cache precisely so degraded values are never
        # promoted into the exact caches above.
        self._stale_units: Dict[Tuple,
                                Dict[Configuration, float]] = {}
        self._degraded_units: Dict[Tuple[Tuple, Configuration],
                                   float] = {}
        # Pessimistic scan bounds served by upper_bound_cost — pure
        # functions of the statistics, epoch-scoped like the rest.
        self._upper_bound_units: Dict[Tuple[Tuple, Configuration],
                                      float] = {}

    # ------------------------------------------------------------------
    # CostProvider protocol (scalar path)
    # ------------------------------------------------------------------

    def exec_cost(self, segment: CostUnit,
                  config: Configuration) -> float:
        """EXEC(unit, config): the canonical weighted left-fold over
        the unit's atoms (one estimate per distinct SQL). An atom whose
        text and configuration are known costs one lookup by text and
        one by configuration."""
        self._check_epoch()
        start = time.perf_counter()
        stats = self.stats
        rows = self._row_by_sql
        total = 0.0
        for statement, weight in atoms_of(segment):
            row = rows.get(statement.sql)
            if row is None:
                row = self._row(statement)
            units = row.get(config)
            if units is None:
                units = self._row_miss(row, config)
            else:
                stats.template_hits += 1
                stats.whatif_calls_avoided += 1
            if weight > 1:
                # Every statement beyond the representative is served
                # from the atom's single estimate.
                stats.whatif_calls_avoided += weight - 1
            total += units * weight
        stats.exec_seconds += time.perf_counter() - start
        return total

    def trans_cost(self, old: Configuration,
                   new: Configuration) -> float:
        self._check_epoch()
        start = time.perf_counter()
        known = self._trans_row(old)
        units = known.get(new)
        if units is None:
            units = known[new] = self.optimizer.transition_units(
                old.structures, new.structures)
            self.stats.trans_calls += 1
        else:
            self.stats.trans_cache_hits += 1
        self.stats.trans_seconds += time.perf_counter() - start
        return units

    def _trans_row(self, old: Configuration
                   ) -> Dict[Configuration, float]:
        row = self._trans_cache.get(old)
        if row is None:
            row = self._trans_cache[old] = {}
        return row

    def upper_bound_cost(self, segment: CostUnit,
                         config: Configuration) -> float:
        """A *sound* pessimistic bound on ``exec_cost(segment,
        config)`` computed from statistics alone.

        Folds :meth:`~repro.sqlengine.whatif.WhatIfOptimizer.
        scan_upper_bound` over the unit's atoms — the same bound the
        degradation ladder's last rung serves, offered here as a
        first-class query. It never consults the fault injector, never
        raises :class:`~repro.errors.EstimationUnavailable`, and never
        advances ``degraded_estimates``: safety-gated consumers use it
        to reason conservatively *about* an outage without taking any
        degraded value as evidence.
        """
        self._check_epoch()
        total = 0.0
        for statement, weight in atoms_of(segment):
            template = self._row(statement).template
            key = (template.key, config)
            units = self._upper_bound_units.get(key)
            if units is None:
                units = self.optimizer.scan_upper_bound(
                    template.representative, config.structures)
                self._upper_bound_units[key] = units
            total += units * weight
        return total

    def size_bytes(self, config: Configuration) -> int:
        self._check_epoch()
        size = self._size_cache.get(config)
        if size is None:
            size = self.optimizer.configuration_size_bytes(
                config.structures)
            self._size_cache[config] = size
            self.stats.size_calls += 1
        else:
            self.stats.size_cache_hits += 1
        return size

    # ------------------------------------------------------------------
    # batch API
    # ------------------------------------------------------------------

    def exec_matrix(self, segments: Sequence[CostUnit],
                    configs: Sequence[Configuration]) -> np.ndarray:
        """The dense EXEC matrix ``(len(units), len(configs))``.

        Each unit (segment or phase summary) is reduced to its
        ``(sql, weight)`` atoms, atoms are deduplicated by template
        across the whole batch, each template is estimated once per
        configuration (cache permitting), and the per-template costs
        are expanded back to the unit axis — a weighted left-fold over
        atoms in first-appearance order, matching the scalar and
        serial-provider paths bit for bit. Work is proportional to
        atoms x configurations, never raw statements.
        """
        self._check_epoch()
        start = time.perf_counter()
        templates: List[StatementTemplate] = []
        template_row: Dict[Tuple, int] = {}
        sql_row: Dict[str, int] = {}
        unit_atoms: List[Tuple[List[int], Sequence[int]]] = []
        n_statements = 0
        for segment in segments:
            statements, weights = columns_of(segment)
            rows: List[int] = []
            for statement in statements:
                row = sql_row.get(statement.sql)
                if row is None:
                    template = self._row(statement).template
                    row = template_row.get(template.key)
                    if row is None:
                        row = len(templates)
                        template_row[template.key] = row
                        templates.append(template)
                    sql_row[statement.sql] = row
                rows.append(row)
            unit_atoms.append((rows, weights))
            n_statements += sum(weights)

        # One estimate per (template, signature) not yet cached.
        calls_before = self.stats.whatif_calls
        units = np.empty((len(templates), len(configs)),
                         dtype=np.float64)
        degraded_cells = self._fill_decomposed(units, templates, configs)

        matrix = np.zeros((len(segments), len(configs)),
                          dtype=np.float64)
        for i, (rows, weights) in enumerate(unit_atoms):
            # Left-fold of weight x unit-cost terms, not np.sum: a
            # cumulative sum adds in atom order, so its last row
            # matches the scalar paths' accumulation bit for bit. Done
            # in blocks that carry the running total, so the temporary
            # does not grow with the unit.
            total = matrix[i]
            for lo in range(0, len(rows), _FOLD_BLOCK):
                hi = lo + _FOLD_BLOCK
                terms = units[rows[lo:hi]] * np.array(
                    weights[lo:hi], dtype=np.float64)[:, None]
                terms[0] += total
                total = np.cumsum(terms, axis=0)[-1]
            matrix[i] = total

        self.stats.batch_calls += 1
        self.stats.batched_statements += n_statements
        self.stats.batched_templates += len(templates)
        issued = self.stats.whatif_calls - calls_before
        self.stats.whatif_calls_avoided += \
            n_statements * len(configs) - issued - degraded_cells
        self.stats.exec_seconds += time.perf_counter() - start
        return matrix

    def trans_matrix(self, configs: Sequence[Configuration]
                     ) -> np.ndarray:
        """The dense TRANS matrix (zero diagonal), cache-shared with
        the scalar path: each pair is one lookup in the cache
        ``trans_cost`` reads and fills, and an estimate on a miss,
        counted as ``trans_cost`` counts it."""
        self._check_epoch()
        start = time.perf_counter()
        transition_units = self.optimizer.transition_units
        n = len(configs)
        rows = []
        calls = hits = 0
        try:
            for i, old in enumerate(configs):
                row = []
                known = self._trans_row(old)
                for j, new in enumerate(configs):
                    if i == j:
                        row.append(0.0)
                        continue
                    units = known.get(new)
                    if units is None:
                        units = known[new] = transition_units(
                            old.structures, new.structures)
                        calls += 1
                    else:
                        hits += 1
                    row.append(units)
                rows.append(row)
        finally:
            self.stats.trans_calls += calls
            self.stats.trans_cache_hits += hits
            self.stats.trans_seconds += time.perf_counter() - start
        return np.array(rows, dtype=np.float64).reshape(n, n)

    # ------------------------------------------------------------------
    # instrumentation
    # ------------------------------------------------------------------

    def stats_snapshot(self) -> CostEstimationStats:
        """A frozen copy of the counters (pair with
        :meth:`stats_delta`)."""
        return self.stats.snapshot()

    def stats_delta(self, since: CostEstimationStats
                    ) -> Dict[str, object]:
        """Counter movement since ``since``, as a plain dict (the
        shape stored in ``Recommendation.stats['costing']``)."""
        return self.stats.delta(since).as_dict()

    def invalidate(self) -> None:
        """Drop every cache (call after out-of-band stats changes; the
        optimizer's own ``refresh_stats`` is detected automatically).

        The retiring exact template values are kept as the *stale
        epoch* — rung 2 of the degradation ladder — so estimation
        outages after a stats refresh degrade to the last known exact
        answer instead of the crude upper bound.
        """
        for key, known in self._template_units.items():
            self._stale_units.setdefault(key, {}).update(known)
        self._template_units.clear()
        self._row_by_sql.clear()
        self._trans_cache.clear()
        self._size_cache.clear()
        self._degraded_units.clear()
        self._upper_bound_units.clear()
        self._signature_units.clear()
        self._signature_keys.clear()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _check_epoch(self) -> None:
        if self.optimizer.stats_epoch != self._stats_epoch:
            self.invalidate()
            self._stats_epoch = self.optimizer.stats_epoch

    def _saw_signature(self, template_key: Tuple, sig: Tuple) -> None:
        pair = (template_key, sig)
        if pair not in self._signature_keys:
            self._signature_keys.add(pair)
            self.stats.unique_signatures = len(self._signature_keys)

    def _row(self, statement) -> _TemplateRow:
        """The exact-estimate row of ``statement``'s template — one
        lookup by SQL text once the text has been seen."""
        row = self._row_by_sql.get(statement.sql)
        if row is None:
            template = self.optimizer.statement_template(statement)
            row = self._template_units.get(template.key)
            if row is None:
                row = self._template_units[template.key] = \
                    _TemplateRow(template)
                self.stats.unique_templates = len(self._template_units)
            self._row_by_sql[statement.sql] = row
        return row

    def _row_miss(self, known: _TemplateRow,
                  config: Configuration) -> float:
        """The units of a cell the template tier lacks: from the
        signature tier, else one estimate through the ladder."""
        template = known.template
        sig = self.optimizer.relevance_signature(
            template, config.structures)
        self._saw_signature(template.key, sig)
        by_signature = self._signature_units.setdefault(
            template.key, {})
        units = by_signature.get(sig)
        if units is not None:
            self.stats.signature_hits += 1
            self.stats.whatif_calls_avoided += 1
            known[config] = units
            return units
        units, degraded = self._issue_template(template, config)
        if not degraded:
            # Degraded answers never enter the exact caches.
            known[config] = units
            by_signature[sig] = units
        return units

    def _issue_template(self, template: StatementTemplate,
                        config: Configuration
                        ) -> Tuple[float, bool]:
        """One (template, config) estimate through the degradation
        ladder: exact (with transient retries) -> last exact value
        from a previous stats epoch -> heap-scan upper bound.

        Returns ``(units, degraded)``; degraded values are cached
        separately (within-epoch determinism) and must never be
        promoted to the exact caches.
        """
        attempt = 1
        while True:
            try:
                units = self.optimizer.estimate_template(
                    template, config.structures).units
                self.stats.whatif_calls += 1
                return units, False
            except EstimationUnavailable as exc:
                self.stats.estimate_faults += 1
                if exc.retryable and \
                        attempt < self.retry_policy.max_attempts:
                    self.stats.estimate_retries += 1
                    attempt += 1
                    continue
                break
        self.stats.degraded_estimates += 1
        key = (template.key, config)
        units = self._degraded_units.get(key)
        if units is not None:
            return units, True
        stale = self._stale_units.get(template.key, {}).get(config)
        if stale is not None:
            self.stats.stale_fallbacks += 1
            units = stale
        else:
            self.stats.upper_bound_fallbacks += 1
            units = self.optimizer.scan_upper_bound(
                template.representative, config.structures)
        self._degraded_units[key] = units
        return units, True

    def _fill_decomposed(self, units: np.ndarray,
                         templates: Sequence[StatementTemplate],
                         configs: Sequence[Configuration]) -> int:
        """Fill the (templates x configs) unit matrix through the
        signature tier: one estimate per (template, relevant subset),
        every configuration sharing the subset filled from it.

        A template with a cell the template tier lacks asks for its
        row of signatures once (``relevance_signatures``: one
        derivation per template) and groups the open columns by
        signature; a signature the signature tier lacks is estimated
        against the first configuration carrying it (any sharer
        yields the same bits — the decomposition invariant the verify
        harness checks). That estimate goes through the degradation
        ladder; a degraded answer fills the group's cells for this
        batch only. Returns the number of cells filled degraded.
        """
        degraded_cells = 0
        for r, template in enumerate(templates):
            known = self._template_units[template.key]
            row = [known.get(config) for config in configs]
            missing = [j for j, value in enumerate(row) if value is None]
            self.stats.template_hits += len(row) - len(missing)
            if missing:
                signatures = self.optimizer.relevance_signatures(
                    template, [configs[j].structures for j in missing])
                groups: Dict[Tuple, List[int]] = {}
                for j, sig in zip(missing, signatures):
                    groups.setdefault(sig, []).append(j)
                by_signature = self._signature_units.setdefault(
                    template.key, {})
                degraded_cols: List[int] = []
                for sig, cols in groups.items():
                    self._saw_signature(template.key, sig)
                    value = by_signature.get(sig)
                    if value is None:
                        value, degraded = self._issue_template(
                            template, configs[cols[0]])
                        if degraded:
                            degraded_cols += cols
                        else:
                            by_signature[sig] = value
                            self.stats.signature_fills += len(cols) - 1
                    else:
                        self.stats.signature_hits += len(cols)
                    for j in cols:
                        row[j] = value
                if degraded_cols:
                    # Degraded answers never enter the exact tiers.
                    degraded_cells += len(degraded_cols)
                    missing = sorted(set(missing).difference(degraded_cols))
                known.update((configs[j], row[j]) for j in missing)
            units[r] = row
        return degraded_cells
