"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``workload`` — generate one of the paper's workloads (or a custom
  mix schedule) into a JSONL trace file.
* ``analyze`` — profile a trace: per-block mixes, detected major/minor
  shifts, and the suggested change budget k.
* ``recommend`` — the advisor: load a trace, synthesize a database
  matching it, and print the recommended constrained dynamic design.
* ``costs`` — cost-estimation instrumentation: run an advisor session
  (several advisors + a k sweep) against one shared
  :class:`~repro.core.costservice.CostService` and report what-if
  calls issued/avoided, cache hit rates, and costing wall time per run.
* ``explain`` — print the costed physical-plan tree for one SELECT
  against a synthesized table, optionally under a hypothetical
  configuration of indexes/views (the what-if catalog substitution
  the advisor relies on).
* ``deploy`` — schedule and execute a transition as an ordered
  deployment: given a target configuration (``--index``/``--view``
  specs, each optionally compressed with an ``@L``/``@H`` suffix) and
  a concurrent workload trace, pick the create/drop order minimizing
  TRANS plus the workload's cost under every intermediate design,
  print the schedule, then run it through the crash-safe catalog
  operations.
* ``experiment`` — regenerate one artefact of the paper's evaluation:
  Table 1/2, Figure 3/4, the ablations and the extensions (13 names,
  one runner each in ``_EXPERIMENTS``).
* ``verify`` — the differential verification harness: cross-check the
  solver implementations against each other, the constrained-solver
  invariants, cost-service bit-identity, what-if estimates against
  live execution, and what-if plan trees against executor plan trees;
  exits non-zero on any disagreement.
* ``chaos`` — the fault-resilience verify family: replay fixtures
  under seeded fault plans and assert that mid-build faults roll the
  catalog and buffer state back atomically, that transient-only plans
  converge bit-identically to the fault-free run, and that permanent
  estimation faults degrade gracefully instead of crashing the
  advisors.

``recommend`` and ``costs`` stream the trace through the workload
summarizer in bounded memory — the advisor works on per-phase
``(statement, weight)`` atoms and never sees the raw statement list;
the ``lp`` advisor solves the summarized problem by LP-relaxation +
rounding with a certified optimality gap.

The CLI is self-contained: ``recommend`` infers the schema from the
trace's queries and populates a synthetic table, so no database setup
is needed to try the advisor on any point-query trace.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__, bench
from .core.advisor import (ConstrainedGraphAdvisor, GreedySeqAdvisor,
                           HybridAdvisor, LPAdvisor, MergingAdvisor,
                           UnconstrainedAdvisor)
from .core.costmatrix import build_cost_matrices
from .core.costservice import CostService
from .core.problem import problem_from_summary
from .core.structures import (Compression, Configuration,
                              EMPTY_CONFIGURATION, compressed_variants,
                              single_index_configurations)
from .errors import ReproError
from .sqlengine.database import Database
from .sqlengine.index import IndexDef
from .sqlengine.sql.ast import Between, SelectStmt
from .sqlengine.views import ViewDef
from .workload.analysis import detect_shifts, detect_summary_shifts
from .workload.mixes import make_paper_workload, paper_generator
from .workload.model import Statement
from .workload.segmentation import segment_by_count
from .workload.summary import atoms_of, summarize_statements
from .workload.trace import (iter_trace, load_trace, save_trace,
                             trace_name)

_ADVISORS = {
    "kaware": lambda k: ConstrainedGraphAdvisor(
        k, count_initial_change=False),
    "lp": lambda k: LPAdvisor(k, count_initial_change=False),
    "merging": lambda k: MergingAdvisor(k, count_initial_change=False),
    "hybrid": lambda k: HybridAdvisor(k, count_initial_change=False),
    "greedy-seq": lambda k: GreedySeqAdvisor(
        k, count_initial_change=False),
    "unconstrained": lambda k: UnconstrainedAdvisor(),
}

#: ``repro experiment NAME`` -> runner taking the shared
#: :class:`~repro.bench.PaperSetup` and returning the artefact's
#: result; the one entry point per paper artefact. Table 1 samples
#: the mixes alone and ignores the setup.
_EXPERIMENTS = {
    "table1": lambda setup: bench.run_table1(),
    "table2": bench.run_table2,
    "figure3": lambda setup: bench.run_figure3(
        setup, bench.run_table2(setup), metered=True),
    "figure4": bench.run_figure4,
    "greedy-seq": bench.run_ablation_greedy_seq,
    "ranking": bench.run_ablation_ranking,
    "hybrid": bench.run_ablation_hybrid,
    "space-bound": bench.run_ablation_space_bound,
    "structures": bench.run_ablation_structures,
    "granularity": bench.run_ablation_granularity,
    "ktuning": bench.run_extension_ktuning,
    "robustness": bench.run_extension_robustness,
    "online": bench.run_extension_online,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return args.handler(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Constrained dynamic physical database design "
                    "(Voigt/Salem/Lehner, ICDE 2008)")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command")

    workload = sub.add_parser(
        "workload", help="generate a paper workload into a trace file")
    workload.add_argument("--name", choices=("W1", "W2", "W3"),
                          default="W1")
    workload.add_argument("--block-size", type=int, default=100)
    workload.add_argument("--seed", type=int, default=0)
    workload.add_argument("--out", required=True)
    workload.set_defaults(handler=_cmd_workload)

    analyze = sub.add_parser(
        "analyze", help="profile a trace and suggest k")
    analyze.add_argument("--trace", required=True)
    analyze.add_argument("--block-size", type=int, default=100)
    analyze.set_defaults(handler=_cmd_analyze)

    recommend = sub.add_parser(
        "recommend", help="recommend a constrained dynamic design "
                          "for a trace")
    recommend.add_argument("--trace", required=True)
    recommend.add_argument("--block-size", type=int, default=100)
    recommend.add_argument("--k", type=int, default=None,
                           help="change budget (default: detected "
                                "from the trace's major shifts)")
    recommend.add_argument("--advisor", choices=sorted(_ADVISORS),
                           default="kaware")
    recommend.add_argument("--rows", type=int, default=100_000,
                           help="rows in the synthesized table")
    recommend.add_argument("--seed", type=int, default=0)
    recommend.add_argument("--compression", action="store_true",
                           help="enlarge the candidate space with "
                                "LIGHT/HEAVY compressed variants of "
                                "every candidate index")
    recommend.set_defaults(handler=_cmd_recommend)

    costs = sub.add_parser(
        "costs", help="report cost-estimation work (what-if calls, "
                      "cache hits, costing time) for an advisor "
                      "session on a trace")
    costs.add_argument("--trace", required=True)
    costs.add_argument("--block-size", type=int, default=100)
    costs.add_argument("--k", type=int, default=None,
                       help="change budget (default: detected from "
                            "the trace's major shifts)")
    costs.add_argument("--advisors", default="unconstrained,kaware,"
                                             "merging,greedy-seq",
                       help="comma-separated advisors to run against "
                            "the shared cost service")
    costs.add_argument("--sweep", action="store_true",
                       help="also run a full k sweep on the shared "
                            "matrices")
    costs.add_argument("--rows", type=int, default=100_000)
    costs.add_argument("--seed", type=int, default=0)
    costs.add_argument("--compression", action="store_true",
                       help="enlarge the candidate space with "
                            "LIGHT/HEAVY compressed variants of "
                            "every candidate index")
    costs.set_defaults(handler=_cmd_costs)

    explain = sub.add_parser(
        "explain", help="print the costed physical-plan tree for a "
                        "SELECT (optionally under a hypothetical "
                        "index/view configuration)")
    explain.add_argument("sql", help="the SELECT statement")
    explain.add_argument("--index", action="append", default=[],
                         metavar="COLS[@LEVEL]",
                         help="hypothetical index key columns, comma-"
                              "separated, with an optional "
                              "compression suffix @L/@H (repeatable)")
    explain.add_argument("--view", action="append", default=[],
                         metavar="COLS[@LEVEL]",
                         help="hypothetical projection-view columns, "
                              "comma-separated (repeatable; same "
                              "@L/@H suffix)")
    explain.add_argument("--rows", type=int, default=5_000,
                         help="rows in the synthesized table "
                              "(default 5000)")
    explain.add_argument("--seed", type=int, default=0)
    explain.set_defaults(handler=_cmd_explain)

    deploy = sub.add_parser(
        "deploy", help="schedule a transition as an ordered "
                       "deployment against a concurrent workload "
                       "trace and execute it")
    deploy.add_argument("--trace", required=True,
                        help="the workload running concurrently with "
                             "the deployment")
    deploy.add_argument("--block-size", type=int, default=100,
                        help="statements of the trace's head used as "
                             "the concurrent segment (default 100)")
    deploy.add_argument("--index", action="append", default=[],
                        metavar="COLS[@LEVEL]",
                        help="target index key columns, comma-"
                             "separated, with an optional compression "
                             "suffix @L/@H (repeatable)")
    deploy.add_argument("--view", action="append", default=[],
                        metavar="COLS[@LEVEL]",
                        help="target projection-view columns "
                             "(repeatable; same @L/@H suffix)")
    deploy.add_argument("--from-index", action="append", default=[],
                        metavar="COLS[@LEVEL]",
                        help="pre-materialized source index the "
                             "deployment starts from (repeatable)")
    deploy.add_argument("--from-view", action="append", default=[],
                        metavar="COLS[@LEVEL]",
                        help="pre-materialized source view "
                             "(repeatable)")
    deploy.add_argument("--space-bound", type=int, default=None,
                        metavar="BYTES",
                        help="every intermediate configuration must "
                             "fit in this many bytes")
    deploy.add_argument("--exact-limit", type=int, default=None,
                        help="largest action count for the exact "
                             "subset-DP scheduler (default 10)")
    deploy.add_argument("--dry-run", action="store_true",
                        help="print the schedule without executing it")
    deploy.add_argument("--rows", type=int, default=100_000)
    deploy.add_argument("--seed", type=int, default=0)
    deploy.set_defaults(handler=_cmd_deploy)

    experiment = sub.add_parser(
        "experiment", help="regenerate a table, figure, ablation or "
                           "extension of the paper's evaluation")
    experiment.add_argument("name", choices=list(_EXPERIMENTS))
    experiment.add_argument("--rows", type=int, default=100_000)
    experiment.add_argument("--block-size", type=int, default=100)
    experiment.add_argument("--seed", type=int, default=0)
    experiment.set_defaults(handler=_cmd_experiment)

    verify = sub.add_parser(
        "verify", help="run the differential verification harness "
                       "(solver equivalence, constrained invariants, "
                       "cost-service bit-identity, estimates vs "
                       "executed ground truth)")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--instances", type=int, default=50,
                        help="randomized solver instances to "
                             "cross-check (default 50)")
    verify.add_argument("--quick", action="store_true",
                        help="shrink the live-engine checks to CI "
                             "scale (never reduces --instances)")
    verify.add_argument("--rows", type=int, default=None,
                        help="rows per live trace instance (default "
                             "4000 quick / 20000 full)")
    verify.add_argument("--traces", type=int, default=None,
                        help="live trace instances (default 1 quick "
                             "/ 2 full)")
    verify.add_argument("--families", default=None,
                        help="comma-separated check families to run "
                             "(default: families 1-5, 7 and 8); "
                             "also accepts 'faultresilience' "
                             "(family 6) and 'banditsafety' "
                             "(family 9)")
    verify.set_defaults(handler=_cmd_verify)

    chaos = sub.add_parser(
        "chaos", help="run the fault-resilience verify family: "
                      "replay fixtures under injected fault plans "
                      "and assert catalog atomicity, metric "
                      "conservation, and transient-only convergence "
                      "to the fault-free recommendation")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--plans", type=int, default=3,
                       help="randomized transient-only fault plans "
                            "for the engine convergence check "
                            "(default 3)")
    chaos.add_argument("--quick", action="store_true",
                       help="stride the atomicity sweep and shrink "
                            "the fixtures to CI scale")
    chaos.add_argument("--scenario", default=None,
                       help="run one adversarial bandit scenario "
                            "(shift, fault_storm, dead_structures, "
                            "crash_deploy, thrash) through the "
                            "safety-gated tuner instead of family 6")
    chaos.set_defaults(handler=_cmd_chaos)
    return parser


# ----------------------------------------------------------------------
# command handlers
# ----------------------------------------------------------------------

def _cmd_workload(args) -> int:
    workload = make_paper_workload(
        args.name, paper_generator(seed=args.seed),
        block_size=args.block_size)
    count = save_trace(workload, args.out)
    print(f"wrote {count} statements of {args.name} "
          f"(block size {args.block_size}) to {args.out}")
    return 0


def _cmd_analyze(args) -> int:
    workload = load_trace(args.trace)
    report = detect_shifts(workload, args.block_size)
    print(f"trace: {len(workload)} statements, "
          f"{len(report.profiles)} blocks of {args.block_size}")
    for profile in report.profiles:
        top = sorted(profile.frequencies.items(),
                     key=lambda kv: -kv[1])[:2]
        rendered = ", ".join(f"{c}:{f:.0%}" for c, f in top)
        marker = ""
        score = report.scores[profile.block_index]
        if profile.block_index in report.major_shifts:
            marker = f"  <- major shift ({score:.2f})"
        elif profile.block_index in report.minor_shifts:
            marker = f"  <- minor shift ({score:.2f})"
        print(f"  block {profile.block_index:3d}: {rendered}{marker}")
    print(f"major shifts at blocks: {list(report.major_shifts)}")
    print(f"minor shifts: {len(report.minor_shifts)}")
    print(f"suggested change budget: k = {report.suggested_k}")
    return 0


def _trace_problem(args, need_k: bool):
    """Stream ``args.trace`` into the problem ``recommend`` and
    ``costs`` advise on.

    The trace goes through the summarizer in bounded memory — the raw
    statement list is never materialized; schema, table data and
    candidate indexes are inferred from the summary's weighted
    statements, and the change budget is detected from its major
    shifts when ``need_k`` and no ``--k`` was given. Returns
    ``(problem, db, candidates)``.
    """
    summary = summarize_statements(
        iter_trace(args.trace), args.block_size,
        name=trace_name(args.trace))
    print(f"summarized trace: {summary.n_statements} statements "
          f"-> {summary.n_atoms} atoms in {summary.n_phases} "
          f"phases ({summary.compression_ratio:.1f}x compression)")
    pairs = [(statement, weight) for phase in summary.phases
             for statement, weight in atoms_of(phase)]
    k = args.k
    if k is None and need_k:
        k = detect_summary_shifts(summary).suggested_k
        print(f"no --k given; detected k = {k} from the "
              f"summary's major shifts")
    db, table = _synthesize_database(pairs, args.rows, args.seed)
    candidates = _candidate_indexes(pairs, table)
    if args.compression:
        candidates = list(compressed_variants(candidates))
    problem = problem_from_summary(
        summary, single_index_configurations(candidates),
        initial=EMPTY_CONFIGURATION, k=k, final=EMPTY_CONFIGURATION)
    return problem, db, candidates


def _cmd_recommend(args) -> int:
    problem, db, candidates = _trace_problem(
        args, need_k=args.advisor != "unconstrained")
    print(f"candidate indexes: "
          f"{', '.join(d.label for d in candidates)}")
    provider = CostService(db.what_if())
    advisor = _ADVISORS[args.advisor](problem.k)
    recommendation = advisor.recommend(problem, provider)
    print(f"\n{recommendation.summary()}")
    print(recommendation.design.format_table())
    if "gap" in recommendation.stats:
        print(f"optimality: true optimum within "
              f"[{recommendation.stats['lower_bound']:.1f}, "
              f"{recommendation.cost:.1f}] "
              f"(gap {recommendation.stats['gap']:.1f})")
    costing = recommendation.costing
    if costing is not None:
        print(f"costing: {costing['whatif_calls']} what-if calls "
              f"issued, {costing['whatif_calls_avoided']} avoided "
              f"({costing['cache_hit_rate']:.0%} cache hit rate), "
              f"{costing['costing_seconds'] * 1e3:.1f}ms estimating")
    return 0


def _cmd_costs(args) -> int:
    problem, db, _candidates = _trace_problem(args, need_k=True)
    service = CostService(db.what_if())

    names = [name.strip() for name in args.advisors.split(",")
             if name.strip()]
    if not names:
        print("error: --advisors names no advisors", file=sys.stderr)
        return 2
    unknown = sorted(set(names) - set(_ADVISORS))
    if unknown:
        print(f"error: unknown advisor(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    rows = []
    for name in names:
        recommendation = _ADVISORS[name](problem.k).recommend(
            problem, service)
        costing = recommendation.costing or {}
        rows.append((name, recommendation.cost, costing))
    if args.sweep:
        from .core.ktuning import sweep_k
        before = service.stats_snapshot()
        start_sweep = build_cost_matrices(problem, service)
        sweep = sweep_k(start_sweep, count_initial_change=False)
        costing = service.stats_delta(before)
        costing["costing_seconds"] = (costing["exec_seconds"] +
                                      costing["trans_seconds"])
        rows.append((f"k-sweep (0..{sweep.ks[-1]})", sweep.costs[-1],
                     costing))

    header = (f"{'run':<22} {'cost':>12} {'what-if':>8} "
              f"{'avoided':>8} {'hit rate':>9} {'costing ms':>11}")
    print("\ncost-estimation work per run (one shared CostService):")
    print(header)
    print("-" * len(header))
    for name, cost, costing in rows:
        print(f"{name:<22} {cost:>12.1f} "
              f"{costing.get('whatif_calls', 0):>8} "
              f"{costing.get('whatif_calls_avoided', 0):>8} "
              f"{costing.get('cache_hit_rate', 0.0):>9.0%} "
              f"{costing.get('costing_seconds', 0.0) * 1e3:>11.2f}")
    totals = service.stats
    print("-" * len(header))
    print(f"session totals: {totals.whatif_calls} what-if calls "
          f"issued, {totals.whatif_calls_avoided} avoided "
          f"({totals.cache_hit_rate:.0%} hit rate), "
          f"{totals.unique_templates} statement templates, "
          f"{totals.batch_calls} batched matrix builds, "
          f"{(totals.exec_seconds + totals.trans_seconds) * 1e3:.1f}ms "
          f"estimating")
    return 0


def _cmd_explain(args) -> int:
    from .sqlengine.sql.parser import parse
    from .workload.mixes import PAPER_VALUE_RANGE
    stmt = parse(args.sql)
    if not isinstance(stmt, SelectStmt):
        print("error: explain supports only SELECT statements",
              file=sys.stderr)
        return 2
    # Infer the schema from the statement itself: every referenced
    # column becomes an INTEGER column spanning its observed constants
    # (the paper's value range when the statement names none).
    columns = set()
    if stmt.columns != ("*",):
        columns.update(stmt.columns)
    for aggregate in stmt.aggregates:
        if aggregate.column is not None:
            columns.add(aggregate.column)
    if stmt.group_by is not None:
        columns.add(stmt.group_by)
    if stmt.order_by is not None:
        columns.add(stmt.order_by.column)
    spans: Dict[str, Tuple[int, int]] = {}
    if stmt.where is not None:
        for predicate in stmt.where.predicates:
            columns.add(predicate.column)
            values = [predicate.lo, predicate.hi] \
                if isinstance(predicate, Between) \
                else [getattr(predicate, "value", None)]
            for value in values:
                if not isinstance(value, int):
                    continue
                lo, hi = spans.get(predicate.column, (value, value))
                spans[predicate.column] = (min(lo, value),
                                           max(hi, value))
    config = _parse_structures(args.index, args.view, stmt.table)
    # Hypothetical structures may key columns the statement never
    # names; the synthesized table must still store them.
    for structure in config:
        columns.update(structure.columns)
    if not columns:
        print("error: cannot infer a schema from the statement "
              "(SELECT * with no predicates)", file=sys.stderr)
        return 2
    default_lo, default_hi = PAPER_VALUE_RANGE
    db = Database()
    db.create_table(stmt.table,
                    [(c, "INTEGER") for c in sorted(columns)])
    rng = np.random.default_rng(args.seed)
    db.bulk_load(stmt.table, {
        column: rng.integers(
            min(spans.get(column, (default_lo, default_hi))[0],
                default_lo),
            max(spans.get(column, (default_lo, default_hi))[1],
                default_hi) + 1,
            args.rows)
        for column in sorted(columns)})
    print(f"synthesized table {stmt.table!r}: {args.rows} rows, "
          f"columns {sorted(columns)}")
    if config:
        print("hypothetical configuration: "
              f"{', '.join(d.label for d in config)}")
        print(db.explain(stmt, config=config))
    else:
        print(db.explain(stmt))
    return 0


def _cmd_deploy(args) -> int:
    from .core.deployment import (DEFAULT_EXACT_LIMIT,
                                  execute_deployment,
                                  schedule_deployment)
    workload = load_trace(args.trace)
    pairs = [(statement, 1) for statement in workload]
    segment = next(iter(segment_by_count(workload, args.block_size)))
    if not (args.index or args.view):
        print("error: deploy needs a target (--index/--view)",
              file=sys.stderr)
        return 2
    db, table = _synthesize_database(
        pairs, args.rows, args.seed,
        extra_columns=_spec_columns(args.index + args.view +
                                    args.from_index + args.from_view))
    source = Configuration(frozenset(
        _parse_structures(args.from_index, args.from_view, table)))
    target = Configuration(frozenset(
        _parse_structures(args.index, args.view, table)))
    if source.structures:
        db.apply_configuration(source.structures)
        print(f"materialized source design {source.label}")
    service = CostService(db.what_if())
    plan = schedule_deployment(
        service, source, target, segment,
        exact_limit=(DEFAULT_EXACT_LIMIT if args.exact_limit is None
                     else args.exact_limit),
        space_bound_bytes=args.space_bound)
    print(f"concurrent segment: {len(segment.statements)} statements "
          f"from {args.trace}")
    print(plan.describe())
    if args.dry_run:
        return 0
    report = db.deploy(plan)
    landed = Configuration(db.current_configuration())
    print(f"executed {len(report.executed)} steps "
          f"({len(report.skipped)} already materialized), "
          f"metered {report.metered.total(db.params):.2f} units; "
          f"now at {landed.label}")
    return 0 if landed == target else 1


def _cmd_experiment(args) -> int:
    setup = bench.build_paper_setup(nrows=args.rows,
                                    block_size=args.block_size,
                                    seed=args.seed)
    print(_EXPERIMENTS[args.name](setup).format())
    return 0


def _cmd_verify(args) -> int:
    from .verify import (CORE_FAMILIES, VerificationReport,
                         run_bandit_safety, run_chaos,
                         run_verification)
    families = None
    if args.families:
        families = [f.strip() for f in args.families.split(",")
                    if f.strip()]
        unknown = [f for f in families
                   if f not in CORE_FAMILIES
                   and f not in ("faultresilience", "banditsafety")]
        if unknown:
            print(f"unknown verify families: {', '.join(unknown)}")
            return 2
    core = None if families is None else \
        [f for f in families if f in CORE_FAMILIES]
    reports = []
    if core is None or core:
        reports.append(run_verification(
            seed=args.seed, instances=args.instances,
            quick=args.quick, nrows=args.rows, traces=args.traces,
            families=core))
    if families is not None and "faultresilience" in families:
        reports.append(run_chaos(seed=args.seed, quick=args.quick))
    if families is not None and "banditsafety" in families:
        reports.append(run_bandit_safety(seed=args.seed,
                                         quick=args.quick))
    report = VerificationReport(
        results=[result for rep in reports for result in rep.results])
    report.seconds = sum(rep.seconds for rep in reports)
    print(report.format())
    return 0 if report.ok else 1


def _cmd_chaos(args) -> int:
    if args.scenario:
        from .faults.scenarios import run_scenario
        report = run_scenario(args.scenario, seed=args.seed,
                              quick=args.quick)
        # Deterministic in (scenario, seed): no timing in the output,
        # so scenario logs are diffable across runs.
        print(report.format())
        return 0 if report.ok else 1
    from .verify import run_chaos
    report = run_chaos(seed=args.seed, plans=args.plans,
                       quick=args.quick)
    # No timing suffix: the chaos report is deterministic in the
    # seed, so the printed output is diffable across runs.
    print(report.format(include_timing=False))
    return 0 if report.ok else 1


# ----------------------------------------------------------------------
# trace -> synthetic database
# ----------------------------------------------------------------------

def _synthesize_database(
        pairs: Sequence[Tuple[Statement, int]], nrows: int,
        seed: int,
        extra_columns: Sequence[str] = ()) -> Tuple[Database, str]:
    """Build a table matching the trace: its name, its integer
    columns, and uniform data spanning each column's observed
    constants. ``pairs`` are weighted statements — a raw trace with
    unit weights, or the atoms of a workload summary.
    ``extra_columns`` are stored even when the trace never queries
    them (structures may key columns the workload does not touch)."""
    table: Optional[str] = None
    spans: Dict[str, Tuple[int, int]] = {}
    for statement, _weight in pairs:
        ast = statement.ast
        if not isinstance(ast, SelectStmt):
            continue
        table = table or ast.table
        if ast.where is None:
            continue
        for predicate in ast.where.predicates:
            value = getattr(predicate, "value", None)
            if not isinstance(value, int):
                continue
            lo, hi = spans.get(predicate.column, (value, value))
            spans[predicate.column] = (min(lo, value),
                                       max(hi, value))
    if table is None or not spans:
        raise ReproError(
            "the trace contains no analyzable point queries")
    from .workload.mixes import PAPER_VALUE_RANGE
    for column in extra_columns:
        spans.setdefault(column, PAPER_VALUE_RANGE)
    db = Database()
    db.create_table(table, [(c, "INTEGER") for c in sorted(spans)])
    rng = np.random.default_rng(seed)
    db.bulk_load(table, {
        column: rng.integers(lo, hi + 1, nrows)
        for column, (lo, hi) in sorted(spans.items())})
    print(f"synthesized table {table!r}: {nrows} rows, columns "
          f"{sorted(spans)}")
    return db, table


def _parse_spec(spec: str) -> Tuple[Tuple[str, ...], Compression]:
    """Split a ``COLS[@LEVEL]`` structure spec, e.g. ``a,b@H`` ->
    ``(("a", "b"), Compression.HEAVY)``."""
    body, _, level = spec.partition("@")
    columns = tuple(c.strip() for c in body.split(",") if c.strip())
    compression = Compression.parse(level) if level \
        else Compression.NONE
    return columns, compression


def _spec_columns(specs: Sequence[str]) -> List[str]:
    """Every column any ``COLS[@LEVEL]`` spec names."""
    columns: List[str] = []
    for spec in specs:
        columns.extend(_parse_spec(spec)[0])
    return columns


def _parse_structures(index_specs: Sequence[str],
                      view_specs: Sequence[str], table: str) -> List:
    structures: List = []
    for spec in index_specs:
        columns, compression = _parse_spec(spec)
        structures.append(IndexDef(table, columns, compression))
    for spec in view_specs:
        columns, compression = _parse_spec(spec)
        structures.append(ViewDef(table, columns, compression))
    return structures


def _candidate_indexes(pairs: Sequence[Tuple[Statement, int]],
                       table: str) -> List[IndexDef]:
    """Single-column indexes on every queried column, plus two-column
    composites over the most-queried columns (weighted by statement
    multiplicity, so a summary ranks columns exactly as its raw trace
    would)."""
    counts: Dict[str, int] = {}
    for statement, weight in pairs:
        ast = statement.ast
        if isinstance(ast, SelectStmt) and ast.where is not None:
            for predicate in ast.where.predicates:
                counts[predicate.column] = \
                    counts.get(predicate.column, 0) + weight
    columns = sorted(counts, key=lambda c: -counts[c])
    candidates = [IndexDef(table, (c,)) for c in sorted(columns)]
    top = columns[:4]
    for i, first in enumerate(top):
        for second in top[i + 1:]:
            candidates.append(IndexDef(table, (first, second)))
    return candidates


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
