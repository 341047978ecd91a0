"""Property tests for the workload-summary IR.

The load-bearing contract: costing a compressed summary is
*bit-identical* to costing the raw statement list, for any trace and
any phase size — exact float equality, not approximate.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import (EMPTY_CONFIGURATION, ProblemInstance,
                        WhatIfCostProvider, build_cost_matrices,
                        problem_from_summary,
                        single_index_configurations)
from repro.core.kaware import solve_constrained
from repro.sqlengine import Database, IndexDef
from repro.workload import (Statement, Workload, segment_by_count,
                            summarize_statements)

_DB = None
_PROVIDER = None


def _provider():
    """One tiny database and serial provider shared by all examples
    (its SQL-keyed cache only speeds things up; bit-identity must hold
    regardless of cache state)."""
    global _DB, _PROVIDER
    if _PROVIDER is None:
        _DB = Database()
        _DB.create_table("t", [("a", "INTEGER"), ("b", "INTEGER")])
        rng = np.random.default_rng(42)
        _DB.bulk_load("t", {column: rng.integers(0, 8, 1_000)
                            for column in ("a", "b")})
        _PROVIDER = WhatIfCostProvider(_DB.what_if())
    return _PROVIDER


_CONFIGS = None


def _configs():
    global _CONFIGS
    if _CONFIGS is None:
        _CONFIGS = single_index_configurations(
            [IndexDef("t", ("a",)), IndexDef("t", ("b",))])
    return _CONFIGS


# Tags derive from the SQL so they are consistent per distinct text:
# an atom keeps its first occurrence's tag, so summary tag counts only
# mirror raw tag counts for per-SQL-consistent tagging.
statements_strategy = st.lists(
    st.builds(
        lambda column, value: Statement(
            f"SELECT {column} FROM t WHERE {column} = {value}",
            tag=(None, "A", "B")[value % 3]),
        st.sampled_from(["a", "b"]),
        st.integers(0, 7)),
    min_size=1, max_size=30)


@given(statements=statements_strategy,
       block_size=st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_summary_costing_bit_identical(statements, block_size):
    provider = _provider()
    raw_problem = ProblemInstance(
        segments=tuple(segment_by_count(Workload(statements),
                                        block_size)),
        configurations=_configs(),
        initial=EMPTY_CONFIGURATION, final=EMPTY_CONFIGURATION)
    summary = summarize_statements(iter(statements), block_size)
    summary_problem = problem_from_summary(
        summary, _configs(), initial=EMPTY_CONFIGURATION,
        final=EMPTY_CONFIGURATION)

    raw = build_cost_matrices(raw_problem, provider)
    compressed = build_cost_matrices(summary_problem, provider)

    assert np.array_equal(raw.exec_matrix, compressed.exec_matrix)
    assert np.array_equal(raw.trans_matrix, compressed.trans_matrix)
    assert raw.initial_index == compressed.initial_index
    assert raw.final_index == compressed.final_index

    for k in (0, 1, 2):
        raw_solution = solve_constrained(raw, k)
        compressed_solution = solve_constrained(compressed, k)
        assert raw_solution.cost == compressed_solution.cost
        assert raw_solution.assignment == \
            compressed_solution.assignment


@given(statements=statements_strategy,
       block_size=st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_summary_bookkeeping_matches_raw(statements, block_size):
    summary = summarize_statements(iter(statements), block_size)
    segments = segment_by_count(Workload(statements), block_size)
    assert summary.n_statements == len(statements)
    assert [(p.start, p.length) for p in summary.phases] == \
        [(s.start, len(s)) for s in segments]
    for phase in summary.phases:
        assert sum(phase.weights) == phase.length
        sqls = [statement.sql for statement in phase.statements]
        assert len(sqls) == len(set(sqls))
    assert summary.tag_counts() == Workload(statements).tag_counts()
