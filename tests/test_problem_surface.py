"""Lint-style guard on the trace→problem surface: one problem class,
one path from a trace to it, so a second formulation or a switch
between equivalent paths is an API change that must show up in
review."""

import pytest

import repro.core
from repro.cli import main
from repro.core import (EMPTY_CONFIGURATION, ProblemInstance,
                        problem_from_summary)
from repro.workload import Statement, summarize_statements


def test_scale_subcommand_is_gone():
    with pytest.raises(SystemExit) as raised:
        main(["scale"])
    assert raised.value.code == 2


def test_recommend_has_no_summary_switch(tmp_path):
    with pytest.raises(SystemExit) as raised:
        main(["recommend", "--trace", str(tmp_path / "w.jsonl"),
              "--summary"])
    assert raised.value.code == 2


def test_core_exports_one_problem_class():
    assert not hasattr(repro.core, "SummaryProblemInstance")
    summary = summarize_statements(
        [Statement("SELECT a FROM t WHERE a = 1")], 1)
    problem = problem_from_summary(summary, (EMPTY_CONFIGURATION,),
                                   initial=EMPTY_CONFIGURATION)
    assert type(problem) is ProblemInstance
