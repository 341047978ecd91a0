"""Self-checks of the advisor benchmark (not part of tier-1).

Run explicitly, from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/advisor/test_selfcheck.py
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
QUICK_LIMIT_S = 40.0


def _quick(tmp_path: Path, tag: str, seed: int) -> dict:
    out = tmp_path / f"{tag}.json"
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--reps", "2",
         "--seed", str(seed), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stdout + done.stderr
    report = json.loads(out.read_text())
    report["elapsed_s"] = elapsed
    return report


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("advisor-quick")
    return _quick(tmp, "first", 0), _quick(tmp, "second", 0)


def test_quick_completes_in_time(quick_runs):
    for report in quick_runs:
        assert report["quick"] is True
        assert report["elapsed_s"] < QUICK_LIMIT_S


def test_quick_runs_repeat_exactly(quick_runs):
    """Same seed: identical counts, whatif_calls and cost_ratio."""
    first, second = quick_runs
    for name in workloads.WORKLOADS:
        a, b = first["workloads"][name], second["workloads"][name]
        assert a["ops_failed"] == b["ops_failed"] == 0
        assert a["inputs"] == b["inputs"]
        for metric in ("whatif_calls", "cost_ratio"):
            assert a["end_to_end"][metric] == b["end_to_end"][metric]
        counts = [m for m in a["per_layer"]
                  if not m.endswith("_s") and m != "trace.overhead"]
        assert counts
        for metric in counts:
            assert a["per_layer"][metric] == b["per_layer"][metric], \
                (name, metric)


def test_report_covers_declared_metrics(quick_runs):
    """Every metric BENCHMARK.json declares is reported, by name."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == \
        list(workloads.WORKLOADS)
    for entry in quick_runs[0]["workloads"].values():
        assert set(entry["per_layer"]) == \
            {m["name"] for m in declared["per_layer"]}
        assert {m["name"] for m in declared["end_to_end"]} <= \
            set(entry["end_to_end"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_changes_traces_not_sizes(name):
    spec = workloads.scaled(workloads.WORKLOADS[name], 0.1)
    first = [s.sql for s in workloads.generate_trace(spec, 0)]
    again = [s.sql for s in workloads.generate_trace(spec, 0)]
    other = [s.sql for s in workloads.generate_trace(spec, 1)]
    assert first == again
    assert first != other
    assert len(first) == len(other) == spec.statements


def test_reference_dp_matches_brute_force():
    """4 segments x 5 configurations, every budget."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        exec_matrix = rng.uniform(1.0, 50.0, (4, 5))
        trans = rng.uniform(1.0, 30.0, (5, 5))
        np.fill_diagonal(trans, 0.0)
        got = reference.reference_costs(exec_matrix, trans, 3, 0, 0)
        want = reference.brute_force_costs(exec_matrix, trans, 3, 0, 0)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        assert np.all(np.diff(got) <= 0.0)
