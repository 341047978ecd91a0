"""The paper's experiments, reproduced end to end.

Each ``run_*`` function regenerates one table or figure of the paper's
Section 6 (plus ablations DESIGN.md calls out), returning a structured
result with a ``format()`` that prints the same rows/series the paper
reports. ``repro experiment NAME`` runs each one at a stated scale;
``tests/integration/test_paper_reproduction.py`` asserts their
qualitative claims.

Scale note: the paper used a 2.5M-row SQL Server table and 15000-query
workloads. Costs here are deterministic simulation units, so the
defaults (100k rows, 3000-query workloads in 30 blocks) preserve every
relative comparison while keeping the full suite in seconds; both knobs
are parameters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.advisor import (ConstrainedGraphAdvisor, GreedySeqAdvisor,
                            Recommendation, UnconstrainedAdvisor)
from ..core.costmatrix import CostMatrices, build_cost_matrices
from ..core.costservice import CostService
from ..core.hybrid import solve_hybrid
from ..core.kaware import (constrained_invariant_violations,
                           solve_constrained)
from ..core.merging import merge_to_k
from ..core.problem import ProblemInstance, enumerate_configurations
from ..core.ranking import solve_by_ranking
from ..core.sequence_graph import solve_unconstrained
from ..core.structures import (Configuration, EMPTY_CONFIGURATION,
                               single_index_configurations)
from ..errors import VerificationError
from ..sqlengine.database import Database
from ..sqlengine.index import IndexDef
from ..verify.checks import (replay_ranking_failures,
                             solver_agreement_failures)
from ..workload.mixes import (PAPER_MIXES, PAPER_VALUE_RANGE,
                              block_labels, make_paper_workload,
                              paper_generator)
from ..workload.model import Workload
from ..workload.segmentation import Segment, segment_by_count
from .evaluate import ReplayReport, estimate_replay, replay_design
from .reporting import format_bars, format_series, format_table

#: The experiments' change-counting convention: the paper's k counts
#: only mid-workload shifts, not the initial index build (see
#: repro.core.kaware for the discussion).
COUNT_INITIAL_CHANGE = False


# ----------------------------------------------------------------------
# shared setup
# ----------------------------------------------------------------------

@dataclass
class PaperSetup:
    """Everything the Section-6 experiments share.

    Attributes:
        db: database with the 4-integer-column table ``t`` loaded.
        nrows / block_size / seed: scale parameters.
        candidates: the six candidate indexes (paper Section 6.1).
        configurations: the seven candidate configurations.
        workloads / segments: W1, W2, W3 and their block segmentation.
        provider: one shared :class:`CostService` — every experiment
            and ablation routes its costing through this instance, so
            matrices built for one figure are cache hits for the next
            (``provider.stats`` meters the whole session).
    """

    db: Database
    nrows: int
    block_size: int
    seed: int
    candidates: List[IndexDef]
    configurations: Tuple[Configuration, ...]
    workloads: Dict[str, Workload]
    segments: Dict[str, List[Segment]]
    provider: CostService

    def problem_for(self, workload_name: str,
                    k: Optional[int] = None) -> ProblemInstance:
        """The paper's problem instance: C0 = final = empty design."""
        return ProblemInstance(
            segments=tuple(self.segments[workload_name]),
            configurations=self.configurations,
            initial=EMPTY_CONFIGURATION, k=k,
            final=EMPTY_CONFIGURATION)


def paper_candidate_indexes(table: str = "t") -> List[IndexDef]:
    """Section 6.1's design space: I(a), I(b), I(c), I(d), I(a,b),
    I(c,d)."""
    return [IndexDef(table, ("a",)), IndexDef(table, ("b",)),
            IndexDef(table, ("c",)), IndexDef(table, ("d",)),
            IndexDef(table, ("a", "b")), IndexDef(table, ("c", "d"))]


def build_paper_setup(nrows: int = 100_000, block_size: int = 100,
                      seed: int = 0) -> PaperSetup:
    """Create the experimental database and workloads.

    The paper's scale is ``nrows=2_500_000, block_size=500``; defaults
    are reduced for bench runtime (see module docstring).
    """
    db = Database()
    db.create_table("t", [("a", "INTEGER"), ("b", "INTEGER"),
                          ("c", "INTEGER"), ("d", "INTEGER")])
    rng = np.random.default_rng(seed)
    lo, hi = PAPER_VALUE_RANGE
    db.bulk_load("t", {column: rng.integers(lo, hi, nrows)
                       for column in ("a", "b", "c", "d")})
    candidates = paper_candidate_indexes()
    configurations = single_index_configurations(candidates)
    workloads: Dict[str, Workload] = {}
    segments: Dict[str, List[Segment]] = {}
    for i, name in enumerate(("W1", "W2", "W3")):
        generator = paper_generator(seed=seed + i + 1)
        workloads[name] = make_paper_workload(
            name, generator, block_size=block_size)
        segments[name] = segment_by_count(workloads[name], block_size)
    provider = CostService(db.what_if())
    return PaperSetup(db=db, nrows=nrows, block_size=block_size,
                      seed=seed, candidates=candidates,
                      configurations=configurations,
                      workloads=workloads, segments=segments,
                      provider=provider)


# ----------------------------------------------------------------------
# Table 1 — workload query mixes
# ----------------------------------------------------------------------

@dataclass
class Table1Result:
    """The four query mixes plus empirically sampled frequencies."""

    declared: Dict[str, Dict[str, float]]
    sampled: Dict[str, Dict[str, float]]
    sample_size: int

    def format(self) -> str:
        headers = ["Mix"] + list(next(iter(self.declared.values())))
        rows = []
        for mix, weights in self.declared.items():
            rows.append([f"Query Mix {mix}"] +
                        [f"{weights[c]:.0%}" for c in weights])
        declared = format_table(headers, rows,
                                title="Table 1: Workload Query Mixes")
        rows = []
        for mix, weights in self.sampled.items():
            rows.append([f"Query Mix {mix}"] +
                        [f"{weights[c]:.1%}" for c in weights])
        sampled = format_table(
            headers, rows,
            title=f"Sampled frequencies (n={self.sample_size}/mix)")
        return declared + "\n\n" + sampled


def run_table1(sample_size: int = 4000, seed: int = 17) -> Table1Result:
    """Reproduce Table 1: the mixes as declared and as sampled."""
    generator = paper_generator(seed=seed)
    declared = {name: dict(mix.weights)
                for name, mix in PAPER_MIXES.items()}
    sampled: Dict[str, Dict[str, float]] = {}
    for name, mix in PAPER_MIXES.items():
        statements = generator.sample(mix, sample_size)
        counts: Dict[str, int] = {c: 0 for c in mix.weights}
        for statement in statements:
            column = statement.sql.split("SELECT ")[1].split(" ")[0]
            counts[column] += 1
        sampled[name] = {c: counts[c] / sample_size
                         for c in mix.weights}
    return Table1Result(declared=declared, sampled=sampled,
                        sample_size=sample_size)


# ----------------------------------------------------------------------
# Table 2 — constrained vs unconstrained designs for W1
# ----------------------------------------------------------------------

@dataclass
class Table2Result:
    """Designs recommended for W1 (k = infinity and k = 2).

    ``rows`` mirrors the paper's Table 2: one row per 500-query block
    with the W1 mix, both designs, and the W2/W3 mixes.
    """

    rows: List[Tuple[str, str, str, str, str, str]]
    unconstrained: Recommendation
    constrained: Recommendation
    problem: ProblemInstance
    matrices: CostMatrices

    def format(self) -> str:
        headers = ["queries", "W1", "k=inf", "k=2", "W2", "W3"]
        return format_table(
            headers, self.rows,
            title="Table 2: Dynamic Workloads and Physical Designs")


def run_table2(setup: PaperSetup, k: int = 2) -> Table2Result:
    """Reproduce Table 2: run both advisors on W1 and lay the designs
    out block by block."""
    problem = setup.problem_for("W1", k=k)
    matrices = build_cost_matrices(problem, setup.provider)
    unconstrained = UnconstrainedAdvisor().recommend(
        problem, setup.provider, matrices)
    constrained = ConstrainedGraphAdvisor(
        k, count_initial_change=COUNT_INITIAL_CHANGE).recommend(
        problem, setup.provider, matrices)
    failures = solver_agreement_failures(
        matrices, k, COUNT_INITIAL_CHANGE, label="table2")
    if failures:
        raise VerificationError(
            "table2 verify pass failed:\n" + "\n".join(failures))
    rows = []
    w1_labels = block_labels("W1")
    w2_labels = block_labels("W2")
    w3_labels = block_labels("W3")
    for block in range(len(w1_labels)):
        lo = block * setup.block_size + 1
        hi = (block + 1) * setup.block_size
        rows.append((f"{lo}-{hi}", w1_labels[block],
                     unconstrained.design[block].label,
                     constrained.design[block].label,
                     w2_labels[block], w3_labels[block]))
    return Table2Result(rows=rows, unconstrained=unconstrained,
                        constrained=constrained, problem=problem,
                        matrices=matrices)


# ----------------------------------------------------------------------
# Figure 3 — workload variations under W1's designs
# ----------------------------------------------------------------------

@dataclass
class Figure3Result:
    """Relative execution times of W1/W2/W3 under both W1 designs.

    Values are normalized to W1 under the unconstrained design (= 1.0),
    exactly like the paper's chart.
    """

    relative: Dict[Tuple[str, str], float]
    reports: Dict[Tuple[str, str], ReplayReport]
    metered: bool

    def format(self) -> str:
        labels, values = [], []
        for workload in ("W1", "W2", "W3"):
            for design in ("unconstrained", "constrained"):
                labels.append(f"{workload} / {design} design")
                values.append(self.relative[(workload, design)])
        title = ("Figure 3: execution time relative to W1 under the "
                 "unconstrained design"
                 + ("" if self.metered else " (cost-model estimate)"))
        return format_bars(labels, values, title=title)

    def slowdown_constrained_w1(self) -> float:
        """The paper's headline: W1 is ~14% slower constrained."""
        return self.relative[("W1", "constrained")] - 1.0


def run_figure3(setup: PaperSetup,
                table2: Optional[Table2Result] = None,
                metered: bool = True) -> Figure3Result:
    """Reproduce Figure 3: replay W1, W2, W3 under both W1-derived
    designs.

    Args:
        setup: the shared experimental setup.
        table2: reuse designs from a prior :func:`run_table2`.
        metered: replay against the live engine (True) or price with
            the cost model only (False, much faster).
    """
    if table2 is None:
        table2 = run_table2(setup)
    designs = {"unconstrained": table2.unconstrained.design,
               "constrained": table2.constrained.design}
    reports: Dict[Tuple[str, str], ReplayReport] = {}
    for workload_name in ("W1", "W2", "W3"):
        segments = setup.segments[workload_name]
        for design_name, design in designs.items():
            if metered:
                report = replay_design(
                    setup.db, segments, design,
                    final_config=EMPTY_CONFIGURATION)
            else:
                report = estimate_replay(
                    setup.provider, segments, design,
                    final_config=EMPTY_CONFIGURATION)
            reports[(workload_name, design_name)] = report
    baseline = reports[("W1", "unconstrained")].total_units
    relative = {key: report.total_units / baseline
                for key, report in reports.items()}
    if metered:
        # Leave the database back in the empty design.
        setup.db.apply_configuration(set())
        # Verify pass: the cost model must rank every replay pair the
        # same way the live engine did, or the estimated and metered
        # versions of this figure would tell different stories.
        estimated = {
            key: estimate_replay(
                setup.provider, setup.segments[key[0]],
                designs[key[1]],
                final_config=EMPTY_CONFIGURATION).total_units
            for key in reports}
        failures = replay_ranking_failures(
            {key: report.total_units
             for key, report in reports.items()}, estimated)
        if failures:
            raise VerificationError(
                "figure3 verify pass failed:\n" + "\n".join(failures))
    return Figure3Result(relative=relative, reports=reports,
                         metered=metered)


# ----------------------------------------------------------------------
# Figure 4 — optimizer runtime vs k
# ----------------------------------------------------------------------

@dataclass
class Figure4Result:
    """Advisor runtimes relative to the unconstrained advisor.

    ``graph_relative[i]`` and ``merging_relative[i]`` are the k-aware
    and merging runtimes at ``ks[i]``, as multiples of the
    unconstrained sequence-graph solve (1.0 = same time) — the paper
    plots the same ratios as percentages.
    """

    ks: List[int]
    graph_relative: List[float]
    merging_relative: List[float]
    unconstrained_seconds: float
    n_segments: int

    def format(self) -> str:
        series = {
            "k-aware graph (x unconstrained)":
                [f"{v:.1f}" for v in self.graph_relative],
            "merging (x unconstrained)":
                [f"{v:.1f}" for v in self.merging_relative],
        }
        return format_series(
            "k", self.ks, series,
            title=(f"Figure 4: optimizer runtime relative to the "
                   f"unconstrained optimizer "
                   f"(n={self.n_segments} segments, "
                   f"unconstrained={self.unconstrained_seconds * 1e3:.2f}"
                   f"ms)"))


def figure4_matrices(setup: PaperSetup,
                     segments_per_block: int = 10) -> CostMatrices:
    """Figure 4's instance: W1 re-segmented ``segments_per_block``
    times finer than the setup's blocks, costed over the setup's
    configuration space."""
    fine_size = max(1, setup.block_size // segments_per_block)
    segments = segment_by_count(setup.workloads["W1"], fine_size)
    problem = ProblemInstance(segments=tuple(segments),
                              configurations=setup.configurations,
                              initial=EMPTY_CONFIGURATION,
                              final=EMPTY_CONFIGURATION)
    return build_cost_matrices(problem, setup.provider)


def run_figure4(setup: PaperSetup,
                ks: Sequence[int] = (2, 4, 6, 8, 10, 12, 14, 16, 18),
                segments_per_block: int = 10,
                repeats: int = 5) -> Figure4Result:
    """Reproduce Figure 4: time both constrained techniques across k.

    The workload is re-segmented more finely (``segments_per_block``
    segments per 1 block) so solver runtimes dominate noise; matrices
    are prebuilt, so the timings isolate the search — the quantity the
    paper's figure compares.
    """
    matrices = figure4_matrices(setup, segments_per_block)

    unconstrained_seconds = _best_time(
        lambda: solve_unconstrained(matrices), repeats)
    unconstrained_assignment = list(
        solve_unconstrained(matrices).assignment)

    graph_relative: List[float] = []
    merging_relative: List[float] = []
    for k in ks:
        # Verify pass: the solution being timed must satisfy the
        # constrained invariants, or the runtimes are meaningless.
        solved = solve_constrained(matrices, k, COUNT_INITIAL_CHANGE)
        violations = constrained_invariant_violations(
            matrices, solved, k,
            count_initial_change=COUNT_INITIAL_CHANGE)
        if violations:
            raise VerificationError(
                f"figure4 verify pass failed at k={k}: "
                + "; ".join(violations))
        graph_seconds = _best_time(
            lambda: solve_constrained(matrices, k,
                                      COUNT_INITIAL_CHANGE), repeats)
        merging_seconds = _best_time(
            lambda: merge_to_k(matrices, unconstrained_assignment, k,
                               COUNT_INITIAL_CHANGE), repeats)
        # Merging needs the unconstrained solution first; charge it.
        merging_seconds += unconstrained_seconds
        graph_relative.append(graph_seconds / unconstrained_seconds)
        merging_relative.append(merging_seconds / unconstrained_seconds)
    return Figure4Result(ks=list(ks), graph_relative=graph_relative,
                         merging_relative=merging_relative,
                         unconstrained_seconds=unconstrained_seconds,
                         n_segments=matrices.n_segments)


def _best_time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# ----------------------------------------------------------------------
# Ablation A — GREEDY-SEQ candidate reduction
# ----------------------------------------------------------------------

@dataclass
class GreedySeqAblationResult:
    """Quality/speed of GREEDY-SEQ reduction vs the full config space."""

    k: Optional[int]
    full_cost: float
    reduced_cost: float
    full_configs: int
    reduced_configs: int
    full_seconds: float
    reduced_seconds: float

    @property
    def cost_ratio(self) -> float:
        return self.reduced_cost / self.full_cost

    def format(self) -> str:
        rows = [
            ["full space", self.full_configs, f"{self.full_cost:.1f}",
             f"{self.full_seconds * 1e3:.1f}ms"],
            ["greedy-seq", self.reduced_configs,
             f"{self.reduced_cost:.1f}",
             f"{self.reduced_seconds * 1e3:.1f}ms"],
        ]
        return format_table(
            ["candidates", "configs", "cost", "time"], rows,
            title=(f"Ablation A: GREEDY-SEQ reduction (k={self.k}); "
                   f"cost ratio {self.cost_ratio:.3f}"))


def run_ablation_greedy_seq(setup: PaperSetup, k: Optional[int] = 2,
                            max_indexes: int = 2
                            ) -> GreedySeqAblationResult:
    """Compare the k-aware optimum over the *full* multi-index config
    space against GREEDY-SEQ's reduced space."""
    what_if = setup.provider.optimizer
    full_configs = enumerate_configurations(
        setup.candidates,
        size_fn=lambda c: what_if.configuration_size_bytes(c.indexes),
        max_indexes=max_indexes)
    problem = ProblemInstance(
        segments=tuple(setup.segments["W1"]),
        configurations=tuple(full_configs),
        initial=EMPTY_CONFIGURATION, k=k, final=EMPTY_CONFIGURATION)

    start = time.perf_counter()
    matrices = build_cost_matrices(problem, setup.provider)
    if k is None:
        full = solve_unconstrained(matrices)
        full_cost = full.cost
    else:
        full_cost = solve_constrained(matrices, k,
                                      COUNT_INITIAL_CHANGE).cost
    full_seconds = time.perf_counter() - start

    advisor = GreedySeqAdvisor(k, count_initial_change=
                               COUNT_INITIAL_CHANGE)
    reduced = advisor.recommend(problem, setup.provider)
    return GreedySeqAblationResult(
        k=k, full_cost=full_cost, reduced_cost=reduced.cost,
        full_configs=len(full_configs),
        reduced_configs=int(reduced.stats["candidates"]),
        full_seconds=full_seconds,
        reduced_seconds=reduced.wall_time_seconds)


# ----------------------------------------------------------------------
# Ablation B — ranking effort vs k
# ----------------------------------------------------------------------

@dataclass
class RankingAblationResult:
    """Paths the ranking solver enumerates as k shrinks, with
    optimality cross-checked against the k-aware DP."""

    ks: List[int]
    paths_examined: List[int]
    optimal: List[bool]
    n_segments: int

    def format(self) -> str:
        series = {"paths examined": self.paths_examined,
                  "matches k-aware optimum": self.optimal}
        return format_series(
            "k", self.ks, series,
            title=(f"Ablation B: path-ranking effort "
                   f"(n={self.n_segments} segments)"))


def run_ablation_ranking(setup: PaperSetup,
                         ks: Sequence[int] = (6, 5, 4, 3, 2),
                         n_blocks: int = 12,
                         max_paths: int = 500_000
                         ) -> RankingAblationResult:
    """Measure ranking effort on a prefix of W1 (the paper warns the
    worst case explodes for small k — this shows the wall)."""
    workload = setup.workloads["W1"]
    prefix = workload[:n_blocks * setup.block_size]
    segments = segment_by_count(prefix, setup.block_size)
    problem = ProblemInstance(segments=tuple(segments),
                              configurations=setup.configurations,
                              initial=EMPTY_CONFIGURATION,
                              final=EMPTY_CONFIGURATION)
    matrices = build_cost_matrices(problem, setup.provider)
    paths: List[int] = []
    optimal: List[bool] = []
    for k in ks:
        ranked = solve_by_ranking(matrices, k, COUNT_INITIAL_CHANGE,
                                  max_paths=max_paths)
        exact = solve_constrained(matrices, k, COUNT_INITIAL_CHANGE)
        paths.append(ranked.paths_examined)
        optimal.append(abs(ranked.cost - exact.cost) < 1e-6)
    return RankingAblationResult(ks=list(ks), paths_examined=paths,
                                 optimal=optimal,
                                 n_segments=matrices.n_segments)


# ----------------------------------------------------------------------
# Ablation C — hybrid switch point
# ----------------------------------------------------------------------

@dataclass
class HybridAblationResult:
    """Which technique the hybrid picks per k, and what it saves.

    The study runs in a *high-churn* regime (TRANS scaled down so the
    unconstrained optimum changes at almost every segment). Note on
    fidelity: our merging implementation prices candidate replacements
    via prefix sums (O(1) per candidate), so on the paper's own
    workload merging simply dominates at every k — the graph-vs-merging
    crossover the paper's Figure 4 anticipates only materializes when
    l (the unconstrained change count) is large relative to k, which
    the churn factor provides.
    """

    ks: List[int]
    methods: List[str]
    hybrid_seconds: List[float]
    graph_seconds: List[float]
    merging_seconds: List[float]
    unconstrained_changes: int

    def format(self) -> str:
        series = {
            "hybrid picks": self.methods,
            "hybrid ms": [f"{s * 1e3:.2f}" for s in self.hybrid_seconds],
            "graph ms": [f"{s * 1e3:.2f}" for s in self.graph_seconds],
            "merging ms":
                [f"{s * 1e3:.2f}" for s in self.merging_seconds],
        }
        return format_series(
            "k", self.ks, series,
            title=(f"Ablation C: hybrid switch point "
                   f"(high-churn: l={self.unconstrained_changes})"))


def run_ablation_hybrid(setup: PaperSetup,
                        ks: Optional[Sequence[int]] = None,
                        segments_per_block: int = 50,
                        churn_factor: float = 0.001,
                        repeats: int = 3) -> HybridAblationResult:
    """Time hybrid vs both pure techniques across k in a high-churn
    regime (TRANS scaled by ``churn_factor``)."""
    fine_size = max(1, setup.block_size // segments_per_block)
    segments = segment_by_count(setup.workloads["W1"], fine_size)
    problem = ProblemInstance(segments=tuple(segments),
                              configurations=setup.configurations,
                              initial=EMPTY_CONFIGURATION,
                              final=EMPTY_CONFIGURATION)
    base = build_cost_matrices(problem, setup.provider)
    matrices = CostMatrices(
        configurations=base.configurations,
        exec_matrix=base.exec_matrix,
        trans_matrix=base.trans_matrix * churn_factor,
        initial_index=base.initial_index,
        final_index=base.final_index)
    unconstrained = solve_unconstrained(matrices)
    unconstrained_assignment = list(unconstrained.assignment)
    l_changes = unconstrained.change_count
    if ks is None:
        # Sweep from deep-constrained to near-unconstrained so the
        # estimate crossover falls inside the range.
        ks = sorted({2, max(3, l_changes // 16),
                     max(4, l_changes // 8), max(5, l_changes // 4),
                     max(6, l_changes // 2),
                     max(7, (3 * l_changes) // 4)})
    methods: List[str] = []
    hybrid_s: List[float] = []
    graph_s: List[float] = []
    merging_s: List[float] = []
    for k in ks:
        result = solve_hybrid(matrices, k, COUNT_INITIAL_CHANGE)
        methods.append(result.method)
        hybrid_s.append(_best_time(
            lambda: solve_hybrid(matrices, k, COUNT_INITIAL_CHANGE),
            repeats))
        graph_s.append(_best_time(
            lambda: solve_constrained(matrices, k,
                                      COUNT_INITIAL_CHANGE), repeats))
        merging_s.append(_best_time(
            lambda: merge_to_k(matrices, unconstrained_assignment, k,
                               COUNT_INITIAL_CHANGE), repeats))
    return HybridAblationResult(ks=list(ks), methods=methods,
                                hybrid_seconds=hybrid_s,
                                graph_seconds=graph_s,
                                merging_seconds=merging_s,
                                unconstrained_changes=l_changes)


# ----------------------------------------------------------------------
# Ablation D — effect of the space bound
# ----------------------------------------------------------------------

@dataclass
class SpaceBoundAblationResult:
    """Constrained design cost as the space bound b varies."""

    bounds_mb: List[float]
    n_configs: List[int]
    costs: List[float]
    k: int

    def format(self) -> str:
        series = {"configs within b": self.n_configs,
                  "optimal cost": [f"{c:.1f}" for c in self.costs]}
        return format_series(
            "b (MB)", [f"{b:.1f}" for b in self.bounds_mb], series,
            title=f"Ablation D: space bound sweep (k={self.k})")


@dataclass
class GranularityAblationResult:
    """Design quality and optimizer cost vs segmentation granularity.

    The paper's Definition 1 works per *statement*; its experiments
    present designs per 500-query *block*. This ablation quantifies
    the trade: how much objective cost does coarser segmentation give
    up, and how much optimizer work does it save?
    """

    segment_sizes: List[int]
    n_segments: List[int]
    costs: List[float]              # at fixed k, evaluated at the
    solve_seconds: List[float]      # finest granularity
    k: int

    def format(self) -> str:
        series = {
            "segments": self.n_segments,
            "design cost": [f"{c:.0f}" for c in self.costs],
            "solve ms": [f"{s * 1e3:.2f}" for s in self.solve_seconds],
        }
        return format_series(
            "segment size", self.segment_sizes, series,
            title=f"Ablation F: segmentation granularity (k={self.k})")


def run_ablation_granularity(setup: PaperSetup, k: int = 2,
                             segment_sizes: Sequence[int] = (
                                 5, 10, 50, 100),
                             repeats: int = 3
                             ) -> GranularityAblationResult:
    """Solve the same W1 problem at several segmentation granularities.

    Every design is *evaluated* at the finest granularity (statement
    blocks of the smallest size) so costs are comparable. Sizes should
    form a divisibility chain (each dividing the next): then a coarse
    design is exactly a fine design constrained to change only on
    coarse boundaries, so costs are non-increasing as segments shrink.
    """
    workload = setup.workloads["W1"]
    finest = min(segment_sizes)
    fine_segments = segment_by_count(workload, finest)
    fine_problem = ProblemInstance(
        segments=tuple(fine_segments),
        configurations=setup.configurations,
        initial=EMPTY_CONFIGURATION, final=EMPTY_CONFIGURATION)
    fine_matrices = build_cost_matrices(fine_problem, setup.provider)

    n_segments: List[int] = []
    costs: List[float] = []
    solve_seconds: List[float] = []
    for size in segment_sizes:
        if size % finest != 0:
            raise ValueError(
                f"segment size {size} must be a multiple of {finest}")
        segments = segment_by_count(workload, size)
        problem = ProblemInstance(
            segments=tuple(segments),
            configurations=setup.configurations,
            initial=EMPTY_CONFIGURATION, final=EMPTY_CONFIGURATION)
        matrices = build_cost_matrices(problem, setup.provider)
        result = solve_constrained(matrices, k, COUNT_INITIAL_CHANGE)
        solve_seconds.append(_best_time(
            lambda: solve_constrained(matrices, k,
                                      COUNT_INITIAL_CHANGE), repeats))
        # Expand the coarse assignment to the fine axis and price it
        # there, so all rows share one objective.
        expansion = size // finest
        fine_assignment: List[int] = []
        for cfg in result.assignment:
            fine_assignment.extend([cfg] * expansion)
        fine_assignment = fine_assignment[:len(fine_segments)]
        costs.append(fine_matrices.sequence_cost(fine_assignment))
        n_segments.append(len(segments))
    return GranularityAblationResult(
        segment_sizes=list(segment_sizes), n_segments=n_segments,
        costs=costs, solve_seconds=solve_seconds, k=k)


@dataclass
class StructureAblationResult:
    """Optimal design cost under different candidate structure kinds.

    The paper defines designs over "structures (e.g., indexes or
    materialized views)" but evaluates indexes only; this ablation
    adds projection views to the space and measures what they buy.
    """

    costs: Dict[str, float]         # space label -> optimal cost
    chosen: Dict[str, List[str]]    # space label -> distinct configs

    def format(self) -> str:
        rows = [[label, f"{self.costs[label]:.1f}",
                 " / ".join(self.chosen[label])]
                for label in self.costs]
        return format_table(
            ["candidate structures", "optimal cost (k=2)",
             "designs used"], rows,
            title="Ablation E: indexes vs materialized views as "
                  "design structures")


def run_ablation_structures(setup: PaperSetup, k: int = 2,
                            span: int = 40_000
                            ) -> StructureAblationResult:
    """Compare candidate spaces of indexes, views, and both on a
    two-column range-scan workload (where projection views shine)."""
    from ..sqlengine.views import ViewDef
    from ..workload.model import Statement, Workload
    rng = np.random.default_rng(setup.seed + 7)
    lo_max = PAPER_VALUE_RANGE[1] - span
    statements = []
    # Three phases like W1, but over column pairs with range scans.
    for phase_pair in (("a", "b"), ("c", "d"), ("a", "b")):
        for i in range(10 * setup.block_size):
            column = phase_pair[i % 2]
            lo = int(rng.integers(0, lo_max))
            statements.append(Statement(
                f"SELECT {phase_pair[0]}, {phase_pair[1]} FROM t "
                f"WHERE {column} BETWEEN {lo} AND {lo + span}"))
    workload = Workload(statements, name="range-pairs")
    segments = segment_by_count(workload, setup.block_size)
    index_candidates = [IndexDef("t", ("a",)), IndexDef("t", ("b",)),
                        IndexDef("t", ("c",)), IndexDef("t", ("d",))]
    view_candidates = [ViewDef("t", ("a", "b")),
                       ViewDef("t", ("c", "d"))]
    spaces = {
        "single-column indexes": index_candidates,
        "projection views": view_candidates,
        "indexes + views": index_candidates + view_candidates,
    }
    costs: Dict[str, float] = {}
    chosen: Dict[str, List[str]] = {}
    for label, candidates in spaces.items():
        problem = ProblemInstance(
            segments=tuple(segments),
            configurations=single_index_configurations(candidates),
            initial=EMPTY_CONFIGURATION, k=k,
            final=EMPTY_CONFIGURATION)
        matrices = build_cost_matrices(problem, setup.provider)
        result = solve_constrained(matrices, k, COUNT_INITIAL_CHANGE)
        costs[label] = result.cost
        labels = []
        for cfg_index in dict.fromkeys(result.assignment):
            labels.append(matrices.configurations[cfg_index].label)
        chosen[label] = labels
    return StructureAblationResult(costs=costs, chosen=chosen)


def run_ablation_space_bound(setup: PaperSetup,
                             bounds_mb: Sequence[float] = (
                                 1.0, 2.0, 4.0, 8.0),
                             k: int = 2,
                             max_indexes: int = 3
                             ) -> SpaceBoundAblationResult:
    """Sweep the space bound over a multi-index configuration space.

    Larger b admits larger (union) configurations, which can only help:
    costs are non-increasing in b — asserted by the integration tests.
    """
    what_if = setup.provider.optimizer
    n_configs: List[int] = []
    costs: List[float] = []
    for bound in bounds_mb:
        configs = enumerate_configurations(
            setup.candidates,
            size_fn=lambda c:
            what_if.configuration_size_bytes(c.indexes),
            space_bound_bytes=int(bound * 1e6),
            max_indexes=max_indexes)
        problem = ProblemInstance(
            segments=tuple(setup.segments["W1"]),
            configurations=tuple(configs),
            initial=EMPTY_CONFIGURATION, k=k,
            space_bound_bytes=int(bound * 1e6),
            final=EMPTY_CONFIGURATION)
        matrices = build_cost_matrices(problem, setup.provider)
        result = solve_constrained(matrices, k, COUNT_INITIAL_CHANGE)
        n_configs.append(len(configs))
        costs.append(result.cost)
    return SpaceBoundAblationResult(bounds_mb=list(bounds_mb),
                                    n_configs=n_configs, costs=costs,
                                    k=k)
