"""One advise run in a fresh process: trace file in, output out.

The driver (``run.py``) starts this once per (workload, rep), so every
timed run pays what a ``repro recommend`` user pays: cold program
caches, warm OS file cache. Imports, the database build and the
configuration enumeration happen before the clock starts; ``advise_s``
runs from opening the trace file to holding the final output.

Flags select what else the run does, never how it advises:
``--count-whatif`` counts calls reaching
``WhatIfOptimizer.estimate_statement``, ``--check`` runs the output
checks of ``reference.py`` after the clock has stopped, and
``--trace-out`` installs the timing shims of ``ledger.py`` and writes
their spans when the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path
from typing import Dict

from repro.core import (BanditTuner, ConstrainedGraphAdvisor,
                        CostService, EMPTY_CONFIGURATION, LPAdvisor,
                        build_cost_matrices, knee_k,
                        problem_from_summary, solve_constrained,
                        sweep_k)
from repro.sqlengine import WhatIfOptimizer
from repro.workload import iter_trace, summarize_statements

import ledger
import reference
from workloads import Inputs, load_inputs

_ADVISORS = {"lp": LPAdvisor, "kaware": ConstrainedGraphAdvisor}


def advise(inputs: Inputs, optimizer: WhatIfOptimizer
           ) -> Dict[str, object]:
    """The timed region. Returns the objects the checks need: the
    provider, the problem (batch workloads) or statement list (tuner),
    and the final output."""
    run = inputs.run
    provider = CostService(optimizer)
    if run["kind"] == "tuner":
        statements = list(iter_trace(inputs.trace_path))
        tuner = BanditTuner(inputs.configurations, provider,
                            observe_every=run["observe_every"],
                            seed=inputs.seed)
        return {"provider": provider, "statements": statements,
                "tuner": tuner, "result": tuner.run(statements)}
    summary = summarize_statements(iter_trace(inputs.trace_path),
                                   inputs.block_size,
                                   name=inputs.workload)
    k = run.get("k")
    problem = problem_from_summary(
        summary, inputs.configurations, initial=EMPTY_CONFIGURATION,
        k=k, final=EMPTY_CONFIGURATION)
    held = {"provider": provider, "summary": summary,
            "problem": problem}
    if run["kind"] == "advisor":
        advisor = _ADVISORS[run["advisor"]](
            k, count_initial_change=False)
        held["result"] = advisor.recommend(problem, provider)
        return held
    matrices = build_cost_matrices(problem, provider)
    sweep = sweep_k(matrices, ks=range(run["ks"]),
                    count_initial_change=False)
    knee = knee_k(sweep)
    held.update(matrices=matrices, sweep=sweep, knee=knee,
                result=solve_constrained(matrices, knee, False))
    return held


def describe(inputs: Inputs, held: Dict[str, object]
             ) -> Dict[str, object]:
    """The output as plain numbers, with a digest every rep of one
    (workload, seed) must reproduce exactly."""
    result = held["result"]
    kind = inputs.run["kind"]
    if kind == "tuner":
        labels = [d.new.label for d in result.decisions]
        out = {"cost": result.total_cost,
               "changes": result.change_count,
               "observations": result.safety["observations"],
               "switches": result.safety["switches"],
               "decisions": [[d.statement_index, d.new.label]
                             for d in result.decisions]}
    elif kind == "advisor":
        labels = [c.label for c in result.design.assignments]
        out = {"cost": result.cost, "changes": result.change_count}
        out.update({key: result.stats[key]
                    for key in ("lower_bound", "gap", "method")
                    if key in result.stats})
    else:
        labels = [str(i) for i in result.assignment]
        out = {"cost": result.cost, "changes": result.change_count,
               "knee": held["knee"],
               "sweep_costs": list(held["sweep"].costs)}
    summary = held.get("summary")
    if summary is not None:
        out["atoms"] = summary.n_atoms
        out["compression"] = summary.compression_ratio
    digest = hashlib.sha256(
        json.dumps([repr(out["cost"]), labels]).encode()).hexdigest()
    out["digest"] = digest[:16]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--count-whatif", action="store_true")
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)

    prep_start = time.perf_counter()
    inputs = load_inputs(args.inputs)
    optimizer = inputs.db.what_if()
    prep_s = time.perf_counter() - prep_start

    recorder = None
    counter = None
    if args.trace_out is not None:
        recorder = ledger.Recorder()
        ledger.install(recorder)
    elif args.count_whatif:
        counter = ledger.CallCounter(WhatIfOptimizer,
                                     "estimate_statement")

    start = time.perf_counter()
    if recorder is not None:
        with recorder.span("advise"):
            held = advise(inputs, optimizer)
    else:
        held = advise(inputs, optimizer)
    advise_s = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    report = {"workload": inputs.workload, "seed": inputs.seed,
              "advise_s": advise_s, "prep_s": prep_s,
              "peak_rss_mb": peak_kib / 1024.0,
              "configurations": len(inputs.configurations),
              "output": describe(inputs, held)}
    if counter is not None:
        report["whatif_calls"] = counter.calls
    if recorder is not None:
        recorder.save(args.trace_out)
    if args.check:
        report["check"] = reference.check_output(inputs, held)
    args.out.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
