"""Scale benchmark: summary-IR advising vs the legacy statement path.

``run_scale`` measures what the compressed workload-summary IR buys as
traces grow. A streaming multi-tenant generator produces traces of
1M+ point queries over a *bounded* per-column value domain (tenants
share the table but rotate through the Table 1 mixes out of phase, so
every phase is a genuine mixture). Each trace is advised two ways:

* ``summary`` — the trace is streamed through
  :func:`~repro.workload.summary.summarize_statements` (bounded
  memory, no statement list) into a
  :class:`~repro.core.problem.SummaryProblemInstance`; advised by the
  exact k-aware DP and by the LP-relaxation solver.
* ``legacy`` — the trace is materialized, segmented with
  :func:`~repro.workload.segmentation.segment_by_count`, and advised
  by the same k-aware DP over the raw statement lists.

The report separates ``prepare_seconds`` (summarize / materialize —
necessarily linear in the trace length) from ``advise_seconds`` (the
matrix build + solve). Because the value domain is bounded, the
per-phase atom count saturates, so summary-path advising is flat in
the trace length: the headline ratio gates the largest trace's advise
time at <= 2x the 100k-statement reference. The bench also verifies
at the smallest size that the summary problem's EXEC/TRANS matrices
are bit-identical to the legacy problem's, and that the exact DP
recommends bit-identical costs through both formulations at every
size where both ran.

``repro scale`` drives this and writes ``BENCH_SCALE.json``;
``benchmarks/bench_scale.py`` wraps the same entry points under
pytest-benchmark.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.advisor import ConstrainedGraphAdvisor, LPAdvisor
from ..core.costmatrix import build_cost_matrices
from ..core.costservice import CostService
from ..core.problem import (ProblemInstance, enumerate_configurations,
                            problem_from_summary)
from ..core.structures import EMPTY_CONFIGURATION
from ..errors import WorkloadError
from ..sqlengine.database import Database
from ..workload.mixes import PAPER_COLUMNS, PAPER_MIXES
from ..workload.model import Statement, Workload
from ..workload.segmentation import segment_by_count
from ..workload.summary import WorkloadSummary, summarize_statements
from .experiments import paper_candidate_indexes

#: Mix rotation for the tenants (rows of the paper's Table 1).
SCALE_MIX_LABELS: Tuple[str, ...] = ("A", "B", "C", "D")

#: Bounded per-column value domain. The whole point of the summary IR
#: is that distinct statements — not raw statements — drive advisor
#: work; a bounded domain (multi-tenant hot sets) caps the distinct
#: SQL count at ``len(columns) * domain``, so per-phase atom counts
#: saturate and summary-path advising goes flat in the trace length.
SCALE_VALUE_RANGE: Tuple[int, int] = (0, 1024)


def iter_scale_statements(n_statements: int, block_size: int,
                          seed: int = 0, n_tenants: int = 4,
                          table: str = "t") -> Iterator[Statement]:
    """Stream a multi-tenant trace, one statement at a time.

    Statement ``i`` belongs to phase ``i // block_size`` and tenant
    ``i % n_tenants``; tenant ``t`` in phase ``p`` draws point queries
    from mix ``SCALE_MIX_LABELS[(p + t % 2) % 4]`` — even tenants run
    this phase's mix, odd tenants run next phase's, so each phase is
    a two-mix blend and the blend *drifts* one mix per phase (if all
    tenants rotated in lockstep-offset fashion the aggregate mixture
    would be phase-invariant and a static design would be optimal).
    Memory stays bounded by one phase's draw buffers; the trace is
    fully deterministic in ``seed``.
    """
    if n_statements < 0:
        raise WorkloadError("n_statements must be >= 0")
    if block_size <= 0:
        raise WorkloadError("block_size must be positive")
    if n_tenants <= 0:
        raise WorkloadError("n_tenants must be positive")
    rng = np.random.default_rng(seed)
    lo, hi = SCALE_VALUE_RANGE
    columns = list(PAPER_COLUMNS)
    n_phases = (n_statements + block_size - 1) // block_size
    emitted = 0
    for phase in range(n_phases):
        length = min(block_size, n_statements - emitted)
        # Per-tenant vectorized draws for this phase, then interleave
        # in stream order via per-tenant cursors. The round-robin
        # phase offset matters when block_size % n_tenants != 0.
        offset = emitted % n_tenants
        counts = [(length - ((t - offset) % n_tenants)
                   + n_tenants - 1) // n_tenants
                  for t in range(n_tenants)]
        labels = [
            SCALE_MIX_LABELS[(phase + t % 2) % len(SCALE_MIX_LABELS)]
            for t in range(n_tenants)]
        draws = []
        for t in range(n_tenants):
            mix = PAPER_MIXES[labels[t]]
            probabilities = np.array(
                [mix.weights[c] for c in columns])
            probabilities = probabilities / probabilities.sum()
            chosen = rng.choice(len(columns), size=counts[t],
                                p=probabilities)
            values = rng.integers(lo, hi, size=counts[t])
            draws.append((chosen, values))
        cursors = [0] * n_tenants
        for i in range(length):
            t = (emitted + i) % n_tenants
            chosen, values = draws[t]
            cursor = cursors[t]
            cursors[t] = cursor + 1
            column = columns[int(chosen[cursor])]
            value = int(values[cursor])
            sql = (f"SELECT {column} FROM {table} "
                   f"WHERE {column} = {value}")
            yield Statement(sql, tag=labels[t])
        emitted += length


def build_scale_database(nrows: int, seed: int = 0) -> Database:
    """The Section 6.1 table over the bench's bounded value domain."""
    db = Database()
    db.create_table("t", [("a", "INTEGER"), ("b", "INTEGER"),
                          ("c", "INTEGER"), ("d", "INTEGER")])
    rng = np.random.default_rng(seed)
    lo, hi = SCALE_VALUE_RANGE
    db.bulk_load("t", {column: rng.integers(lo, hi, nrows)
                       for column in PAPER_COLUMNS})
    return db


@dataclass
class ScaleRun:
    """One advised trace: a (size, path, advisor) cell."""

    path: str                 # "summary" | "legacy"
    advisor: str              # "kaware" | "lp"
    n_statements: int
    n_phases: int
    n_atoms: int              # raw statements on the legacy path
    compression_ratio: float
    prepare_seconds: float    # summarize / materialize + segment
    advise_seconds: float     # matrix build + solve
    cost: float
    change_count: int
    whatif_calls: int
    gap: Optional[float] = None   # LP optimality gap, when applicable

    def as_dict(self) -> Dict[str, object]:
        return dict(vars(self))


@dataclass
class ScaleReport:
    """Everything ``BENCH_SCALE.json`` carries.

    ``failures`` is non-empty iff the summary formulation broke
    bit-identity with the legacy one, or summary-path advising failed
    the flat-scaling gate — the conditions CI gates on.
    """

    params: Dict[str, object]
    runs: List[ScaleRun]
    ratios: Dict[str, float]
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> Dict[str, object]:
        return {
            "label": "scale-advising",
            "params": self.params,
            "runs": [run.as_dict() for run in self.runs],
            "ratios": dict(self.ratios),
            "failures": list(self.failures),
            "ok": self.ok,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def format(self) -> str:
        lines = [f"scale advising ({self.params['n_phases']} phases, "
                 f"{self.params['n_configs']} configurations, "
                 f"k={self.params['k']}, "
                 f"{self.params['n_tenants']} tenants)"]
        header = (f"  {'statements':>10} {'path':<8} {'advisor':<8}"
                  f" {'atoms':>7} {'prepare s':>10} {'advise s':>9}"
                  f" {'cost':>14} {'changes':>7}")
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for run in self.runs:
            lines.append(
                f"  {run.n_statements:>10} {run.path:<8}"
                f" {run.advisor:<8} {run.n_atoms:>7}"
                f" {run.prepare_seconds:>10.3f}"
                f" {run.advise_seconds:>9.3f}"
                f" {run.cost:>14.1f} {run.change_count:>7}")
        for name, value in sorted(self.ratios.items()):
            lines.append(f"  {name}: {value:.3f}")
        if self.failures:
            lines.append("  FAILURES:")
            lines.extend(f"    - {failure}"
                         for failure in self.failures)
        else:
            lines.append("  summary and legacy formulations agree")
        return "\n".join(lines)


def _advise(problem, advisor, optimizer) -> Tuple[float, object, int]:
    """Advise through a fresh CostService; return (wall, rec, calls)."""
    service = CostService(optimizer)
    start = time.perf_counter()
    recommendation = advisor.recommend(problem, service)
    wall = time.perf_counter() - start
    return wall, recommendation, service.stats.whatif_calls


def run_scale(sizes: Sequence[int] = (10_000, 100_000, 1_000_000),
              n_phases: int = 12, k: int = 3, nrows: int = 50_000,
              seed: int = 0, n_tenants: int = 4,
              legacy_max: Optional[int] = None,
              quick: bool = False) -> ScaleReport:
    """Advise the same multi-tenant workload at several trace lengths.

    Args:
        sizes: trace lengths (statements) to advise, ascending.
        n_phases: fixed phase count — the phase *schedule* is constant
            across sizes (block size scales with the trace), so every
            size is "the same workload, longer".
        k / nrows / seed / n_tenants: problem scale knobs.
        legacy_max: skip the (materializing) legacy path above this
            trace length; ``None`` runs it everywhere.
        quick: CI scale — two small sizes, small table.
    """
    if quick:
        sizes = (2_000, 20_000)
        nrows = min(nrows, 5_000)
    sizes = sorted(set(int(n) for n in sizes))
    if not sizes or sizes[0] < n_phases:
        raise WorkloadError(
            f"sizes must be >= n_phases ({n_phases}); got {sizes}")
    db = build_scale_database(nrows, seed)
    configurations = tuple(enumerate_configurations(
        paper_candidate_indexes("t"), max_indexes=2))

    runs: List[ScaleRun] = []
    failures: List[str] = []
    kaware_costs: Dict[Tuple[str, int], float] = {}
    smallest_matrices: Dict[str, object] = {}

    for n in sizes:
        block_size = math.ceil(n / n_phases)

        # --- summary path: stream -> atoms, never a statement list.
        start = time.perf_counter()
        summary: WorkloadSummary = summarize_statements(
            iter_scale_statements(n, block_size, seed=seed,
                                  n_tenants=n_tenants),
            block_size, name=f"scale-{n}")
        summarize_seconds = time.perf_counter() - start
        summary_problem = problem_from_summary(
            summary, configurations, initial=EMPTY_CONFIGURATION,
            k=k, final=EMPTY_CONFIGURATION)
        for advisor_name, advisor in (
                ("kaware", ConstrainedGraphAdvisor(
                    k, count_initial_change=False)),
                ("lp", LPAdvisor(k, count_initial_change=False))):
            wall, rec, calls = _advise(summary_problem, advisor,
                                       db.what_if())
            runs.append(ScaleRun(
                path="summary", advisor=advisor_name,
                n_statements=n, n_phases=summary.n_phases,
                n_atoms=summary.n_atoms,
                compression_ratio=summary.compression_ratio,
                prepare_seconds=summarize_seconds,
                advise_seconds=wall, cost=rec.cost,
                change_count=rec.change_count, whatif_calls=calls,
                gap=rec.stats.get("gap")))
            if advisor_name == "kaware":
                kaware_costs[("summary", n)] = rec.cost

        # --- legacy path: materialize, segment, advise the raw lists.
        if legacy_max is None or n <= legacy_max:
            start = time.perf_counter()
            workload = Workload(
                list(iter_scale_statements(n, block_size, seed=seed,
                                           n_tenants=n_tenants)),
                name=f"scale-{n}")
            segments = tuple(segment_by_count(workload, block_size))
            materialize_seconds = time.perf_counter() - start
            legacy_problem = ProblemInstance(
                segments=segments, configurations=configurations,
                initial=EMPTY_CONFIGURATION, k=k,
                final=EMPTY_CONFIGURATION)
            wall, rec, calls = _advise(
                legacy_problem,
                ConstrainedGraphAdvisor(k, count_initial_change=False),
                db.what_if())
            runs.append(ScaleRun(
                path="legacy", advisor="kaware", n_statements=n,
                n_phases=len(segments), n_atoms=n,
                compression_ratio=1.0,
                prepare_seconds=materialize_seconds,
                advise_seconds=wall, cost=rec.cost,
                change_count=rec.change_count, whatif_calls=calls))
            kaware_costs[("legacy", n)] = rec.cost
            if n == sizes[0]:
                # Bit-identity spot check at the smallest size: the
                # two formulations must fill identical matrices.
                smallest_matrices["summary"] = build_cost_matrices(
                    summary_problem, CostService(db.what_if()))
                smallest_matrices["legacy"] = build_cost_matrices(
                    legacy_problem, CostService(db.what_if()))

    if len(smallest_matrices) == 2:
        summary_m = smallest_matrices["summary"]
        legacy_m = smallest_matrices["legacy"]
        if not np.array_equal(summary_m.exec_matrix,
                              legacy_m.exec_matrix):
            failures.append(
                f"n={sizes[0]}: summary EXEC matrix differs from "
                f"legacy (max abs diff "
                f"{np.max(np.abs(summary_m.exec_matrix - legacy_m.exec_matrix))!r})")
        if not np.array_equal(summary_m.trans_matrix,
                              legacy_m.trans_matrix):
            failures.append(
                f"n={sizes[0]}: summary TRANS matrix differs from "
                f"legacy")
    for n in sizes:
        summary_cost = kaware_costs.get(("summary", n))
        legacy_cost = kaware_costs.get(("legacy", n))
        if summary_cost is not None and legacy_cost is not None \
                and summary_cost != legacy_cost:
            failures.append(
                f"n={n}: k-aware cost through the summary "
                f"formulation ({summary_cost!r}) differs from the "
                f"legacy formulation ({legacy_cost!r})")

    ratios: Dict[str, float] = {}
    reference_n = 100_000 if 100_000 in sizes else sizes[0]
    largest_n = sizes[-1]
    by_cell = {(run.path, run.advisor, run.n_statements): run
               for run in runs}
    for path in ("summary", "legacy"):
        reference = by_cell.get((path, "kaware", reference_n))
        largest = by_cell.get((path, "kaware", largest_n))
        if reference is None or largest is None or \
                reference.advise_seconds <= 0:
            continue
        ratios[f"{path}_advise_{largest_n}_vs_{reference_n}"] = \
            largest.advise_seconds / reference.advise_seconds
    lp_reference = by_cell.get(("summary", "lp", reference_n))
    lp_largest = by_cell.get(("summary", "lp", largest_n))
    if lp_reference is not None and lp_largest is not None and \
            lp_reference.advise_seconds > 0:
        ratio = lp_largest.advise_seconds / lp_reference.advise_seconds
        ratios[f"summary_lp_advise_{largest_n}_vs_{reference_n}"] = \
            ratio
    # The flat-scaling gate: summary-path advising on the largest
    # trace must stay within 2x of the reference size. A small
    # absolute floor keeps millisecond-scale timing noise (quick/CI
    # runs) from flipping the gate.
    gate = ratios.get(f"summary_advise_{largest_n}_vs_{reference_n}")
    if gate is not None and largest_n != reference_n:
        reference = by_cell[("summary", "kaware", reference_n)]
        largest = by_cell[("summary", "kaware", largest_n)]
        if gate > 2.0 and \
                largest.advise_seconds - reference.advise_seconds > 0.5:
            failures.append(
                f"summary advise time did not stay flat: "
                f"{largest.advise_seconds:.3f}s at {largest_n} vs "
                f"{reference.advise_seconds:.3f}s at {reference_n} "
                f"({gate:.2f}x > 2x)")

    params = {
        "sizes": list(sizes), "n_phases": n_phases, "k": k,
        "nrows": nrows, "seed": seed, "n_tenants": n_tenants,
        "quick": quick, "legacy_max": legacy_max,
        "n_configs": len(configurations),
        "value_range": list(SCALE_VALUE_RANGE),
        "reference_n": reference_n, "largest_n": largest_n,
    }
    return ScaleReport(params=params, runs=runs, ratios=ratios,
                       failures=failures)
