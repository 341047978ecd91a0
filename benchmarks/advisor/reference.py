"""The benchmark's own reference and output checks.

:func:`reference_costs` is a numpy k-aware DP written for this
benchmark alone (EXEC + TRANS, initial and final design given, the
initial change not counted): it shares no code with ``repro.core``, so
an advisor that gets faster by getting worse shows up as a
``cost_ratio`` above 1. :func:`brute_force_costs` backs it on tiny
instances (``test_selfcheck.py``).

:func:`check_output` runs in the child after the clock has stopped. It
recomputes the output's cost from the matrices, compares exact
advisors with the reference to 1e-9 relative, holds the LP advisor to
its certified interval and the tuner to its safety bound, and checks
seeded EXEC and TRANS cells against direct ``Database.estimate`` /
``WhatIfOptimizer.transition_cost`` sums.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Sequence

import numpy as np

from repro.core import EMPTY_CONFIGURATION, build_cost_matrices
from repro.workload import atoms_of, iter_segments_by_count

REL_TOL = 1e-9
#: EXEC and TRANS cells checked per workload, and the cap on direct
#: estimates one check may spend on EXEC cells (a long_trace phase
#: holds thousands of atoms, so it gets fewer cells).
CELLS = 64
MAX_CELL_ESTIMATES = 6_000


def reference_costs(exec_matrix: np.ndarray, trans: np.ndarray,
                    k_max: int, initial: int, final: int
                    ) -> np.ndarray:
    """Optimal cost with at most k changes, for every k in 0..k_max.

    ``dist[l, c]`` is the cheapest way to serve the phases so far
    ending in configuration ``c`` after exactly ``l`` changes; moving
    from the initial design into the first phase's configuration is
    paid (TRANS) but not counted, and so is the move to ``final``.
    """
    n_phases, n_configs = exec_matrix.shape
    move = trans.copy()
    np.fill_diagonal(move, np.inf)
    dist = np.full((k_max + 1, n_configs), np.inf)
    dist[0] = trans[initial] + exec_matrix[0]
    for phase in range(1, n_phases):
        best = dist.copy()
        if k_max:
            changed = (dist[:-1, :, None] + move[None]).min(axis=1)
            best[1:] = np.minimum(best[1:], changed)
        dist = best + exec_matrix[phase]
    exactly = (dist + trans[:, final]).min(axis=1)
    return np.minimum.accumulate(exactly)


def sequence_cost(exec_matrix: np.ndarray, trans: np.ndarray,
                  assignment: Sequence[int], initial: int,
                  final: int) -> float:
    """EXEC + TRANS of one design sequence, summed directly."""
    total, previous = 0.0, initial
    for phase, config in enumerate(assignment):
        total += trans[previous, config] + exec_matrix[phase, config]
        previous = config
    return float(total + trans[previous, final])


def change_count(assignment: Sequence[int]) -> int:
    """Design changes after the first phase (the paper's count)."""
    return sum(1 for a, b in zip(assignment, assignment[1:]) if a != b)


def brute_force_costs(exec_matrix: np.ndarray, trans: np.ndarray,
                      k_max: int, initial: int, final: int
                      ) -> np.ndarray:
    """:func:`reference_costs` by enumerating every assignment."""
    n_phases, n_configs = exec_matrix.shape
    best = np.full(k_max + 1, np.inf)
    for assignment in product(range(n_configs), repeat=n_phases):
        changes = change_count(assignment)
        if changes <= k_max:
            cost = sequence_cost(exec_matrix, trans, assignment,
                                 initial, final)
            best[changes] = min(best[changes], cost)
    return np.minimum.accumulate(best)


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------

def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


class _Direct:
    """Direct estimates, one ``Database.estimate`` per distinct
    (sql, configuration)."""

    def __init__(self, db):
        self.db = db
        self.optimizer = db.what_if()
        self.estimates = 0
        self._units: Dict[tuple, float] = {}

    def exec_units(self, sql: str, config) -> float:
        key = (sql, config)
        units = self._units.get(key)
        if units is None:
            units = self.db.estimate(sql, config.structures).units
            self._units[key] = units
            self.estimates += 1
        return units

    def exec_cell(self, unit, config) -> float:
        """EXEC(unit, config) as the weighted sum over the unit's
        distinct statements, folded in first-appearance order."""
        total = 0.0
        for statement, weight in atoms_of(unit):
            total += self.exec_units(statement.sql, config) * weight
        return total

    def trans_units(self, old, new) -> float:
        return self.optimizer.transition_cost(
            old.structures, new.structures).total(
                self.optimizer.params)


def _check_cells(direct: _Direct, rng, units, configs, exec_of,
                 trans_of, failures: List[str]) -> int:
    """Seeded EXEC and TRANS cells against direct sums."""
    per_unit = max(1, max(len(getattr(u, "atoms", u)) for u in units))
    n_exec = int(min(CELLS, max(4, MAX_CELL_ESTIMATES // per_unit)))
    for _ in range(n_exec):
        i = int(rng.integers(0, len(units)))
        j = int(rng.integers(0, len(configs)))
        want = direct.exec_cell(units[i], configs[j])
        got = exec_of(i, j)
        if not _close(got, want):
            failures.append(f"EXEC[{i}, {configs[j].label}] = {got!r}"
                            f", direct estimates sum to {want!r}")
    for _ in range(CELLS):
        i = int(rng.integers(0, len(configs)))
        j = int(rng.integers(0, len(configs)))
        want = direct.trans_units(configs[i], configs[j])
        got = trans_of(i, j)
        if not _close(got, want):
            failures.append(
                f"TRANS[{configs[i].label} -> {configs[j].label}] = "
                f"{got!r}, direct transition cost is {want!r}")
    return n_exec + CELLS


def _check_batch(inputs, held, direct, rng, failures) -> Dict:
    problem, provider = held["problem"], held["provider"]
    matrices = held.get("matrices") or \
        build_cost_matrices(problem, provider)
    exec_matrix, trans = matrices.exec_matrix, matrices.trans_matrix
    empty = matrices.config_index(EMPTY_CONFIGURATION)
    result, run = held["result"], inputs.run

    if run["kind"] == "sweep":
        k = held["knee"]
        assignment = list(result.assignment)
        budgets = list(held["sweep"].ks)
        costs = list(held["sweep"].costs)
    else:
        k = run["k"]
        assignment = [matrices.config_index(c)
                      for c in result.design.assignments]
        budgets, costs = [k], [result.cost]
    reference = reference_costs(exec_matrix, trans, max(budgets),
                                empty, empty)

    own = sequence_cost(exec_matrix, trans, assignment, empty, empty)
    if not _close(own, result.cost):
        failures.append(f"reported cost {result.cost!r} but the "
                        f"design sums to {own!r}")
    if change_count(assignment) > k:
        failures.append(f"{change_count(assignment)} changes exceed "
                        f"k = {k}")
    if any(b > a for a, b in zip(costs, costs[1:])):
        failures.append(f"sweep costs rise with k: {costs}")

    ratios = [cost / reference[budget]
              for budget, cost in zip(budgets, costs)]
    ratio = max(ratios + [result.cost / reference[k]])
    if run.get("advisor") == "lp":
        lower, gap = result.stats["lower_bound"], result.stats["gap"]
        ceiling = 1.0 + gap / lower
        if not (1.0 - REL_TOL <= ratio <= ceiling + REL_TOL):
            failures.append(
                f"LP cost / reference = {ratio!r} outside "
                f"[1, {ceiling!r}] (gap {gap!r}, bound {lower!r})")
    elif abs(ratio - 1.0) > REL_TOL or \
            abs(min(ratios) - 1.0) > REL_TOL:
        failures.append(
            f"advisor / reference DP = {ratios} at k = {budgets}")

    configs = matrices.configurations
    cells = _check_cells(
        direct, rng, problem.segments, configs,
        lambda i, j: float(exec_matrix[i, j]),
        lambda i, j: float(trans[i, j]), failures)
    return {"cost_ratio": ratio, "cells": cells, "k": k,
            "reference_cost": float(reference[k])}


def _check_tuner(inputs, held, direct, rng, failures) -> Dict:
    result, provider = held["result"], held["provider"]
    statements, tuner = held["statements"], held["tuner"]
    design = result.design.assignments
    if len(design) != len(statements):
        failures.append(f"design covers {len(design)} statements, "
                        f"the stream has {len(statements)}")
    realised = stay_put = 0.0
    current = EMPTY_CONFIGURATION
    for statement, config in zip(statements, design):
        if config != current:
            realised += direct.trans_units(current, config)
            current = config
        realised += direct.exec_units(statement.sql, config)
        stay_put += direct.exec_units(statement.sql,
                                      EMPTY_CONFIGURATION)
    gate = tuner.gate
    limit = (1.0 + gate.regression_bound) * stay_put + gate.slack_units
    if realised > limit * (1.0 + REL_TOL):
        failures.append(f"realised cost {realised!r} breaks the gate's "
                        f"bound {limit!r} (stay-put {stay_put!r})")
    if not _close(realised, result.total_cost):
        failures.append(f"tuner reports {result.total_cost!r}, direct "
                        f"estimates sum to {realised!r}")
    if not _close(stay_put, result.stayput_cost):
        failures.append(f"tuner's stay-put {result.stayput_cost!r}, "
                        f"direct estimates sum to {stay_put!r}")

    segments = list(iter_segments_by_count(
        statements, inputs.run["observe_every"]))
    arms = tuner.arms
    cells = _check_cells(
        direct, rng, segments, arms,
        lambda i, j: provider.exec_cost(segments[i], arms[j]),
        lambda i, j: provider.trans_cost(arms[i], arms[j]), failures)
    return {"cost_ratio": realised / stay_put, "cells": cells,
            "reference_cost": stay_put}


def check_output(inputs, held) -> Dict[str, object]:
    """Every check of one run; ``failures`` lists what went wrong with
    the offending numbers."""
    failures: List[str] = []
    direct = _Direct(inputs.db)
    rng = np.random.default_rng([inputs.seed, 7])
    check = _check_tuner if inputs.run["kind"] == "tuner" \
        else _check_batch
    report = check(inputs, held, direct, rng, failures)
    report["direct_estimates"] = direct.estimates
    report["failures"] = failures
    return report
