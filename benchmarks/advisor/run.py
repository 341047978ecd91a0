#!/usr/bin/env python3
"""Advisor benchmark: trace in, recommendation out, on five workloads.

Two ways to run it, over the same inputs, child process and checks:

* the benchmark contract, one workload per invocation::

      python3 benchmarks/advisor/run.py --workload wide_space \\
          --seed 0 --seconds 18 --trace 0

  sets the workload up (several times; ``setup_s`` is the median),
  runs one checked and counted rep, then timed reps for ``--seconds``
  seconds, and prints one JSON object as the last line of stdout:
  every end-to-end metric with ``--trace 0``, every per-layer metric
  (from a traced child) with ``--trace 1``;

* the whole ledger at once::

      python3 benchmarks/advisor/run.py [--seed 0] [--reps 5]
                                        [--quick] [--out FILE]

  sets every workload up once, runs a checked round and ``--reps``
  timed rounds — a round runs each workload once, so a slow episode of
  the host is spread over all of them — then one traced pass each, and
  prints every metric by name with its unit. It exits non-zero when a
  check or the shim-coverage guard fails.

Closed loop, one client: children run strictly one after another, each
a fresh process with ``PYTHONHASHSEED=0`` and one numeric thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: Set-ups per contract run (``setup_s`` is their median) and the
#: fewest timed reps a run reports on, however short ``--seconds`` is.
SETUPS = 5
MIN_REPS = 3
CHILD_TIMEOUT_S = 150
NOISE_WARNING = 0.25


class Failure(Exception):
    """A failed op: the message names workload, rep and numbers."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def run_child(inputs: Path, label: str, *flags: str) -> Dict:
    """One child run; returns its report or raises :class:`Failure`
    (exception in the child, time-out, failed check)."""
    out = inputs / "out.json"
    command = [sys.executable, str(HERE / "child.py"),
               "--inputs", str(inputs), "--out", str(out), *flags]
    try:
        done = subprocess.run(command, env=child_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise Failure(f"{label}: child exceeded "
                      f"{CHILD_TIMEOUT_S} s") from None
    if done.returncode != 0:
        raise Failure(f"{label}: child exited {done.returncode}\n"
                      f"{done.stderr.strip()[-2000:]}")
    report = json.loads(out.read_text())
    failures = report.get("check", {}).get("failures", [])
    if failures:
        raise Failure(f"{label}: " + "; ".join(failures))
    return report


def host_calibration() -> float:
    """Seconds a fixed pure-Python + numpy loop takes on this host.
    Reported beside the results so a reader can tell a slow host from
    a slow program; never used to normalise."""
    import numpy as np
    matrix = np.arange(160_000, dtype=np.float64).reshape(400, 400)
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    for _ in range(10):
        matrix @ matrix
    return time.perf_counter() - start


def provenance(seed: int, reps: int) -> Dict[str, object]:
    import numpy as np
    head = ROOT / ".git" / "HEAD"
    sha = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") \
            else None
        sha = (target.read_text().strip() if target and
               target.is_file() else ref)
    return {"seed": seed, "git_sha": sha,
            "python": platform.python_version(),
            "numpy": np.__version__, "nproc": os.cpu_count(),
            "reps": reps}


class WorkloadRun:
    """One workload's inputs on disk and the samples taken on them."""

    def __init__(self, name: str, seed: int, scale: float,
                 work: Path):
        self.name, self.seed, self.scale = name, seed, scale
        self.spec = workloads.scaled(workloads.WORKLOADS[name], scale)
        self.inputs = work / name
        self.setup_s: List[float] = []
        self.facts: Dict[str, object] = {}
        self.checked: Optional[Dict] = None
        self.samples: List[Dict] = []
        self.traced: List[Dict] = []
        self.attempted = 0
        self.failures: List[str] = []

    def set_up(self) -> None:
        """Generate and save the trace and table rows, bulk-load the
        database, take statistics, enumerate configurations."""
        start = time.perf_counter()
        facts = workloads.write_inputs(self.spec, self.seed,
                                       self.inputs)
        inputs = workloads.load_inputs(self.inputs)
        self.setup_s.append(time.perf_counter() - start)
        self.facts = dict(facts, candidates=len(inputs.candidates),
                          configurations=len(inputs.configurations))

    def _attempt(self, rep: str, *flags: str) -> Optional[Dict]:
        self.attempted += 1
        try:
            report = run_child(self.inputs, f"{self.name} {rep}",
                               *flags)
            if self.checked is not None and \
                    report["output"]["digest"] != \
                    self.checked["output"]["digest"]:
                raise Failure(
                    f"{self.name} {rep}: output "
                    f"{report['output']['digest']} (cost "
                    f"{report['output']['cost']!r}) differs from the "
                    f"checked rep's "
                    f"{self.checked['output']['digest']} (cost "
                    f"{self.checked['output']['cost']!r})")
            return report
        except Failure as failure:
            self.failures.append(str(failure))
            print(f"FAILED {failure}", flush=True)
            return None

    def checked_rep(self) -> None:
        """The rep whose output is checked and whose what-if calls
        are counted; its time is not a sample."""
        self.checked = self._attempt("checked rep", "--check",
                                     "--count-whatif")

    def timed_rep(self) -> None:
        report = self._attempt(f"rep {len(self.samples) + 1}")
        if report is not None:
            self.samples.append(report)

    def traced_rep(self) -> None:
        spans_path = self.inputs / "spans.npz"
        report = self._attempt(f"traced rep {len(self.traced) + 1}",
                               "--trace-out", str(spans_path))
        if report is None:
            return
        if "shapes" not in self.facts:
            self.facts["shapes"] = workloads.literal_stripped_shapes(
                self.inputs / "trace.jsonl")
        report["spans"] = ledger.Spans(spans_path)
        self.traced.append(report)

    # -- results --------------------------------------------------------

    def end_to_end(self) -> Dict[str, float]:
        times = [s["advise_s"] for s in self.samples]
        fastest = min(times)
        return {
            "advise_s": fastest,
            "advise_median_s": statistics.median(times),
            "advise_max_s": max(times),
            "noise": (statistics.median(times) - fastest) / fastest,
            "samples": len(times),
            "setup_s": statistics.median(self.setup_s),
            "peak_rss_mb": max(s["peak_rss_mb"] for s in self.samples),
            "whatif_calls": self.checked["whatif_calls"],
            "cost_ratio": self.checked["check"]["cost_ratio"],
        }

    def per_layer(self) -> Dict[str, float]:
        """Layer metrics of the fastest traced rep, over the fastest
        untraced rep; coverage-guard findings become failures."""
        best = min(self.traced, key=lambda r: r["advise_s"])
        metrics = ledger.layer_metrics(
            best["spans"], self.facts["shapes"], best["output"],
            min(s["advise_s"] for s in self.samples))
        self.attempted += 1
        findings = ledger.coverage_failures(
            metrics, self.spec.run["kind"],
            self.spec.layer if self.scale == 1.0 else None)
        if self.checked is not None and \
                metrics["whatif.estimate_calls"] != \
                self.checked["whatif_calls"]:
            findings.append(
                f"whatif.estimate_calls = "
                f"{metrics['whatif.estimate_calls']} but the checked "
                f"rep counted {self.checked['whatif_calls']}")
        for finding in findings:
            self.failures.append(f"{self.name} traced pass: {finding}")
            print(f"FAILED {self.failures[-1]}", flush=True)
        return metrics


def print_metrics(title: str, values: Dict[str, float],
                  units: Dict[str, str]) -> None:
    print(title)
    for name, value in values.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        unit = units.get(name, "s" if name.endswith("_s") else "")
        print(f"  {name:<32} {shown:>14} {unit}")


def declared_metrics() -> Dict[str, List[Dict[str, str]]]:
    """The metric lists of ``BENCHMARK.json``, the one place names
    and units are declared."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {group: declared[group]
            for group in ("end_to_end", "per_layer")}


def units_of(declared: Dict[str, List[Dict[str, str]]]
             ) -> Dict[str, str]:
    return {m["name"]: m["unit"] for group in declared.values()
            for m in group}


def contract_run(args, work: Path) -> int:
    """``--workload NAME --seed N --seconds S --trace 0|1``."""
    declared = declared_metrics()
    workload = WorkloadRun(args.workload, args.seed, 1.0, work)
    for _ in range(SETUPS):
        workload.set_up()
    print(f"{workload.name}: seed {args.seed}, inputs "
          f"{workload.facts}, host_calib_s {host_calibration():.4f}")

    deadline = time.perf_counter() + args.seconds
    if args.trace:
        # Alternate untraced and traced children so both minima see
        # the same stretch of host time.
        while not workload.failures and (
                time.perf_counter() < deadline or not workload.traced):
            workload.timed_rep()
            workload.traced_rep()
        group = "per_layer"
        values = workload.per_layer() \
            if workload.traced and workload.samples else {}
    else:
        workload.checked_rep()
        while not workload.failures and (
                time.perf_counter() < deadline
                or len(workload.samples) < MIN_REPS):
            workload.timed_rep()
        group = "end_to_end"
        values = workload.end_to_end() \
            if workload.checked and workload.samples else {}
        if values.get("noise", 0.0) > NOISE_WARNING:
            print(f"WARNING noise {values['noise']:.2f}: the host was "
                  f"busy, repeat the run")
    units = units_of(declared)
    print_metrics(f"{workload.name} {group}", values, units)
    result = {
        "correct": not workload.failures,
        "attempted": max(1, workload.attempted),
        "failed": len(workload.failures),
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]}
                    for m in declared[group]} if values else {},
    }
    print(json.dumps(result))
    return 0


def full_run(args, work: Path) -> int:
    """Every workload: set-up, checked round, timed rounds, traced
    pass; one report."""
    scale = 0.1 if args.quick else 1.0
    units = units_of(declared_metrics())
    calib = host_calibration()
    runs = [WorkloadRun(name, args.seed, scale, work)
            for name in workloads.WORKLOADS]
    for run in runs:
        run.set_up()
    for run in runs:
        run.checked_rep()
    for _ in range(args.reps):
        for run in runs:
            run.timed_rep()
    for run in runs:
        run.traced_rep()

    report = {"label": "advisor-benchmark", "quick": args.quick,
              "provenance": provenance(args.seed, args.reps),
              "host_calib_s": calib, "workloads": {}}
    failures: List[str] = []
    for run in runs:
        entry = {"why": run.spec.why, "inputs": run.facts}
        if run.checked and run.samples and run.traced:
            entry["end_to_end"] = run.end_to_end()
            entry["per_layer"] = run.per_layer()
            entry["end_to_end"]["fail_share"] = \
                len(run.failures) / run.attempted
            entry["layer_shares"] = ledger.group_shares(
                entry["per_layer"])
            print_metrics(f"\n{run.name} end to end",
                          entry["end_to_end"], units)
            print_metrics(f"{run.name} per layer", entry["per_layer"],
                          units)
            print_metrics(f"{run.name} layer shares of trace.total_s",
                          entry["layer_shares"], {})
            if entry["end_to_end"]["noise"] > NOISE_WARNING:
                print(f"WARNING {run.name}: noise "
                      f"{entry['end_to_end']['noise']:.2f} — the host "
                      f"was busy, repeat the run")
        entry["ops_attempted"] = run.attempted
        entry["ops_failed"] = len(run.failures)
        report["workloads"][run.name] = entry
        failures.extend(run.failures)
    print(f"\nhost_calib_s {calib:.4f}; provenance "
          f"{report['provenance']}")
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1, default=str))
    if failures:
        print(f"\n{len(failures)} failed op(s):")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("\nall ops correct")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found — the benchmark "
              f"drives the program in src/ and cannot run without it",
              file=sys.stderr)
        return 2
    # The benchmark's modules import ``repro``; they can only be
    # imported once its absence has been ruled out and src/ is on the
    # path, so they are bound here for the functions above.
    sys.path.insert(0, str(SRC))
    global ledger, workloads
    import ledger
    import workloads
    if args.workload is not None and \
            args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose "
                     f"from {', '.join(workloads.WORKLOADS)}")

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="advisor-", dir=scratch))
    try:
        if args.workload is not None:
            return contract_run(args, work)
        return full_run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
