"""Summary-IR scaling: advising cost vs trace length.

Advises the same multi-tenant workload at growing trace lengths
through the compressed workload-summary path (streamed atoms, LP or
exact DP) and the legacy materialize-and-segment path, asserting the
two formulations recommend bit-identical costs and that summary-path
advise time stays flat (within 2x) as the trace grows 10x.

Sizes are deliberately small here (pytest scale); the committed
``BENCH_SCALE.json`` comes from ``repro scale`` at 1M+ statements.
"""

import math
import os

import pytest

from repro.bench.scale import (build_scale_database,
                               iter_scale_statements, run_scale)
from repro.core.advisor import LPAdvisor
from repro.core.costservice import CostService
from repro.core.problem import (enumerate_configurations,
                                problem_from_summary)
from repro.core.structures import EMPTY_CONFIGURATION
from repro.bench.experiments import paper_candidate_indexes
from repro.workload.summary import summarize_statements


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        return default


SMALL = _env_int("REPRO_SCALE_SMALL", 5_000)
LARGE = _env_int("REPRO_SCALE_LARGE", 50_000)
NROWS = _env_int("REPRO_SCALE_NROWS", 10_000)
PHASES = 12


def test_scale_report(capsys):
    report = run_scale(sizes=(SMALL, LARGE), n_phases=PHASES,
                       nrows=NROWS, seed=0)
    with capsys.disabled():
        print("\n" + report.format() + "\n")
    assert report.ok, report.failures
    summary_runs = [run for run in report.runs
                    if run.path == "summary"]
    assert summary_runs
    # Bounded value domain: the atom count must compress the raw
    # trace once phases are long enough to revisit values.
    largest = max(summary_runs, key=lambda run: run.n_statements)
    assert largest.n_atoms < largest.n_statements


@pytest.fixture(scope="module")
def scale_db():
    return build_scale_database(NROWS, seed=0)


@pytest.fixture(scope="module")
def scale_configs():
    return tuple(enumerate_configurations(
        paper_candidate_indexes("t"), max_indexes=2))


def _advise_summary(db, configurations, n):
    block_size = math.ceil(n / PHASES)
    summary = summarize_statements(
        iter_scale_statements(n, block_size, seed=0), block_size,
        name=f"bench-{n}")
    problem = problem_from_summary(
        summary, configurations, initial=EMPTY_CONFIGURATION, k=3,
        final=EMPTY_CONFIGURATION)
    return LPAdvisor(3, count_initial_change=False).recommend(
        problem, CostService(db.what_if()))


def test_bench_summary_advise_small(benchmark, scale_db,
                                    scale_configs):
    recommendation = benchmark(
        _advise_summary, scale_db, scale_configs, SMALL)
    assert recommendation.change_count <= 3


def test_bench_summary_advise_large(benchmark, scale_db,
                                    scale_configs):
    recommendation = benchmark(
        _advise_summary, scale_db, scale_configs, LARGE)
    assert recommendation.change_count <= 3
