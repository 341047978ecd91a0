"""Tests for the command-line interface."""

import argparse
import re

import pytest

from repro.cli import _EXPERIMENTS, _build_parser, main


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "w1.jsonl"
    code = main(["workload", "--name", "W1", "--block-size", "40",
                 "--out", str(path)])
    assert code == 0
    return path


class TestWorkloadCommand:
    def test_writes_trace(self, trace_path, capsys):
        assert trace_path.exists()
        from repro.workload import load_trace
        workload = load_trace(trace_path)
        assert len(workload) == 1200
        assert workload.name == "W1"

    def test_other_workloads(self, tmp_path, capsys):
        out = tmp_path / "w3.jsonl"
        assert main(["workload", "--name", "W3", "--block-size", "10",
                     "--out", str(out)]) == 0
        assert "300 statements of W3" in capsys.readouterr().out


class TestAnalyzeCommand:
    def test_detects_shifts_and_k(self, trace_path, capsys):
        assert main(["analyze", "--trace", str(trace_path),
                     "--block-size", "40"]) == 0
        out = capsys.readouterr().out
        assert "major shifts at blocks: [10, 20]" in out
        assert "suggested change budget: k = 2" in out
        # Every marker carries its sustained distance; block 8 is over
        # the 0.25 threshold yet minor — the weaker boundary of block
        # 10's cluster.
        assert "block  10: c:65%, b:18%  <- major shift (0.62)" in out
        assert "block  20: a:62%, b:28%  <- major shift (0.60)" in out
        assert "block   8: a:48%, b:30%  <- minor shift (0.26)" in out

    def test_missing_trace_fails_cleanly(self, capsys, tmp_path):
        code = main(["analyze", "--trace",
                     str(tmp_path / "nope.jsonl")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestRecommendCommand:
    def test_auto_k_recommends_paper_design(self, trace_path, capsys):
        assert main(["recommend", "--trace", str(trace_path),
                     "--block-size", "40", "--rows", "20000"]) == 0
        out = capsys.readouterr().out
        assert "detected k = 2" in out
        assert "{I(a,b)}" in out and "{I(c,d)}" in out
        assert "changes=2" in out

    def test_explicit_k_and_advisor(self, trace_path, capsys):
        assert main(["recommend", "--trace", str(trace_path),
                     "--block-size", "40", "--rows", "20000",
                     "--k", "1", "--advisor", "merging"]) == 0
        out = capsys.readouterr().out
        assert "merging:" in out
        assert "changes=1" in out or "changes=0" in out

    def test_unconstrained_advisor(self, trace_path, capsys):
        assert main(["recommend", "--trace", str(trace_path),
                     "--block-size", "40", "--rows", "20000",
                     "--advisor", "unconstrained"]) == 0
        out = capsys.readouterr().out
        assert "unconstrained:" in out

    def test_budget_beyond_the_segments_prints_the_same_design(
            self, trace_path, capsys):
        """--k 1000000 builds only the layers 30 segments can use: the
        same output as --k 30 once timings are stripped (it took ~35 s
        before the layer cap, and --k 5000000 ran out of memory)."""
        outputs = []
        for k in ("30", "1000000"):
            assert main(["recommend", "--trace", str(trace_path),
                         "--block-size", "40", "--rows", "20000",
                         "--k", k]) == 0
            outputs.append(re.sub(r"[0-9]+(\.[0-9]+)? ?m?s\b", "<t>",
                                  capsys.readouterr().out))
        assert "kaware:" in outputs[0]
        assert outputs[0] == outputs[1]

    def test_empty_trace_is_an_error(self, tmp_path, capsys):
        from repro.workload import Workload, save_trace, Statement
        path = tmp_path / "ddl.jsonl"
        save_trace(Workload([Statement("DELETE FROM t")]), path)
        code = main(["recommend", "--trace", str(path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestCostsCommand:
    def test_reports_per_run_and_session_totals(self, trace_path,
                                                capsys):
        assert main(["costs", "--trace", str(trace_path),
                     "--block-size", "40", "--rows", "20000",
                     "--k", "2",
                     "--advisors", "unconstrained,kaware"]) == 0
        out = capsys.readouterr().out
        assert "one shared CostService" in out
        assert "unconstrained" in out and "kaware" in out
        assert "session totals:" in out
        assert "what-if calls issued" in out
        assert "statement templates" in out

    def test_sweep_adds_a_row(self, trace_path, capsys):
        assert main(["costs", "--trace", str(trace_path),
                     "--block-size", "40", "--rows", "20000",
                     "--k", "2", "--advisors", "kaware",
                     "--sweep"]) == 0
        assert "k-sweep (0.." in capsys.readouterr().out

    def test_unknown_advisor_fails(self, trace_path, capsys):
        assert main(["costs", "--trace", str(trace_path),
                     "--rows", "20000",
                     "--advisors", "kaware,nope"]) == 2
        assert "unknown advisor" in capsys.readouterr().err

    def test_empty_advisors_fails(self, trace_path, capsys):
        assert main(["costs", "--trace", str(trace_path),
                     "--rows", "20000", "--advisors", ","]) == 2
        assert "names no advisors" in capsys.readouterr().err

    def test_recommend_prints_costing(self, trace_path, capsys):
        assert main(["recommend", "--trace", str(trace_path),
                     "--block-size", "40", "--rows", "20000",
                     "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "costing:" in out
        assert "what-if calls issued" in out


class TestSummaryPath:
    def test_recommend_summary_matches_raw(self, trace_path, capsys):
        """The CLI's streamed-summary run prints the design rows and
        cost of the library's advisor on the raw segmented trace."""
        from repro.cli import _candidate_indexes, _synthesize_database
        from repro.core import (ConstrainedGraphAdvisor, CostService,
                                EMPTY_CONFIGURATION, ProblemInstance,
                                single_index_configurations)
        from repro.workload import load_trace, segment_by_count
        assert main(["recommend", "--trace", str(trace_path),
                     "--block-size", "40", "--rows", "20000",
                     "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "summarized trace: 1200 statements" in out
        assert "x compression)" in out

        workload = load_trace(trace_path)
        pairs = [(statement, 1) for statement in workload]
        db, table = _synthesize_database(pairs, 20000, 0)
        problem = ProblemInstance(
            segments=tuple(segment_by_count(workload, 40)),
            configurations=single_index_configurations(
                _candidate_indexes(pairs, table)),
            initial=EMPTY_CONFIGURATION, k=2,
            final=EMPTY_CONFIGURATION)
        raw = ConstrainedGraphAdvisor(
            2, count_initial_change=False).recommend(
                problem, CostService(db.what_if()))
        assert len(raw.design.runs()) == 3
        assert raw.design.format_table() in out
        assert (f"kaware: cost={raw.cost:.1f}, "
                f"changes={raw.change_count}, ") in out

    def test_summary_detects_k(self, trace_path, capsys):
        assert main(["recommend", "--trace", str(trace_path),
                     "--block-size", "40", "--rows", "20000"]) == 0
        assert "detected k = 2" in capsys.readouterr().out

    def test_lp_advisor_reports_interval(self, trace_path, capsys):
        assert main(["recommend", "--trace", str(trace_path),
                     "--block-size", "40", "--rows", "20000",
                     "--k", "2", "--advisor", "lp"]) == 0
        out = capsys.readouterr().out
        assert "lp:" in out
        assert "optimality: true optimum within" in out
        assert "gap" in out

    def test_costs_summary(self, trace_path, capsys):
        assert main(["costs", "--trace", str(trace_path),
                     "--block-size", "40", "--rows", "20000",
                     "--k", "2", "--advisors", "kaware,lp"]) == 0
        out = capsys.readouterr().out
        assert "summarized trace:" in out
        assert "kaware" in out and "lp" in out


#: The first line each ``repro experiment`` artefact prints.
_TITLES = {
    "table1": "Table 1: Workload Query Mixes",
    "table2": "Table 2: Dynamic Workloads and Physical Designs",
    "figure3": "Figure 3: execution time relative to W1",
    "figure4": "Figure 4: optimizer runtime relative to",
    "greedy-seq": "Ablation A: GREEDY-SEQ reduction",
    "ranking": "Ablation B: path-ranking effort",
    "hybrid": "Ablation C: hybrid switch point",
    "space-bound": "Ablation D: space bound sweep",
    "structures": "Ablation E: indexes vs materialized views",
    "granularity": "Ablation F: segmentation granularity",
    "ktuning": "Extension 1: cost curve on W1",
    "robustness": "Extension 2: design robustness",
    "online": "Extension 3: offline (trace in advance) vs online",
}


class TestExperimentCommand:
    def test_choices_are_the_runner_table(self):
        parser = _build_parser()
        commands = next(action for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction))
        name = next(action for action in
                    commands.choices["experiment"]._actions
                    if action.dest == "name")
        assert list(name.choices) == list(_EXPERIMENTS) == list(_TITLES)

    # The hybrid's runner times three solvers at six budgets (~12 s at
    # this scale); CI runs it with the other twelve.
    @pytest.mark.parametrize("name",
                             [name for name in _TITLES if name != "hybrid"])
    def test_prints_the_artefact(self, name, capsys):
        assert main(["experiment", name, "--rows", "2000",
                     "--block-size", "20"]) == 0
        assert capsys.readouterr().out.startswith(_TITLES[name])


class TestExplainCommand:
    # Golden output: the synthesized table is seeded (--seed 0,
    # --rows 5000 defaults), so the plan tree and its costs are
    # deterministic. CI diffs against this rendering.
    GOLDEN_SEEK = (
        "synthesized table 't': 5000 rows, columns ['a', 'b', 'c']\n"
        "hypothetical configuration: I(a,b)\n"
        "index_seek(I(a,b)) cost=2.00 rows~0.0\n"
        "Project(c)  cost=2.00\n"
        "└─ Sort(c)  cost=2.00\n"
        "   └─ FetchHeap(t)  cost=2.00\n"
        "      └─ SeekIndex(I(a,b), eq_prefix=1, range)  cost=2.00\n")

    def test_golden_seek_pipeline(self, capsys):
        assert main(["explain",
                     "SELECT c FROM t WHERE a = 5 AND b > 100 "
                     "ORDER BY c", "--index", "a,b"]) == 0
        assert capsys.readouterr().out == self.GOLDEN_SEEK

    def test_full_scan_without_config(self, capsys):
        assert main(["explain", "SELECT a FROM t WHERE a = 5"]) == 0
        out = capsys.readouterr().out
        assert "full_scan(heap)" in out
        assert "ScanHeap(t)" in out
        assert "hypothetical configuration" not in out

    def test_hypothetical_view(self, capsys):
        assert main(["explain", "SELECT a FROM t WHERE b = 5",
                     "--view", "a,b"]) == 0
        out = capsys.readouterr().out
        assert "hypothetical configuration: V(a,b)" in out
        assert "ScanView(V(a,b))" in out

    def test_group_aggregate_pipeline(self, capsys):
        assert main(["explain",
                     "SELECT a, COUNT(*) FROM t "
                     "WHERE b BETWEEN 100 AND 200 GROUP BY a"]) == 0
        out = capsys.readouterr().out
        assert "GroupAggregate(a; COUNT(*))" in out

    def test_non_select_rejected(self, capsys):
        assert main(["explain", "DELETE FROM t"]) == 2
        assert "only SELECT" in capsys.readouterr().err

    def test_uninferrable_schema_rejected(self, capsys):
        assert main(["explain", "SELECT COUNT(*) FROM t"]) == 2
        assert "cannot infer" in capsys.readouterr().err


class TestTopLevel:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage:" in capsys.readouterr().out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestChaos:
    def test_chaos_quick_exits_zero_and_is_diffable(self, capsys):
        assert main(["chaos", "--quick", "--plans", "1",
                     "--seed", "2"]) == 0
        first = capsys.readouterr().out
        assert "faultresilience" in first
        assert "0 failures" in first
        # The printed report omits wall time, so a rerun on the same
        # seed is byte-identical.
        assert main(["chaos", "--quick", "--plans", "1",
                     "--seed", "2"]) == 0
        assert capsys.readouterr().out == first
