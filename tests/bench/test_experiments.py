"""Smoke tests for the experiment harness at tiny scale.

The paper's claims are asserted at the ``repro experiment`` scale in
``tests/integration/test_paper_reproduction.py``; these verify the
harness machinery (setup builders, result structures, report
rendering) quickly.
"""

import pytest

from repro.bench import (build_paper_setup, run_ablation_greedy_seq,
                         run_ablation_hybrid, run_ablation_ranking,
                         run_ablation_space_bound, run_figure3,
                         run_figure4, run_table1, run_table2)


@pytest.fixture(scope="module")
def tiny_setup():
    return build_paper_setup(nrows=10_000, block_size=20, seed=0)


class TestSetup:
    def test_three_workloads_of_thirty_blocks(self, tiny_setup):
        for name in ("W1", "W2", "W3"):
            assert len(tiny_setup.workloads[name]) == 600
            assert len(tiny_setup.segments[name]) == 30

    def test_seven_configurations(self, tiny_setup):
        assert len(tiny_setup.configurations) == 7

    def test_problem_for_pins_empty_ends(self, tiny_setup):
        problem = tiny_setup.problem_for("W1", k=2)
        assert problem.initial.label == "{}"
        assert problem.final.label == "{}"
        assert problem.k == 2


class TestTable1:
    def test_structure_and_format(self):
        result = run_table1(sample_size=500)
        assert set(result.declared) == {"A", "B", "C", "D"}
        text = result.format()
        assert "Query Mix A" in text and "55%" in text


class TestTable2:
    def test_designs_and_format(self, tiny_setup):
        result = run_table2(tiny_setup)
        assert len(result.rows) == 30
        assert result.constrained.change_count <= 2
        text = result.format()
        assert "k=inf" in text and "I(" in text


class TestFigure3:
    def test_estimated_mode_baseline_is_one(self, tiny_setup):
        result = run_figure3(tiny_setup, metered=False)
        assert result.relative[("W1", "unconstrained")] == \
            pytest.approx(1.0)
        assert len(result.relative) == 6
        assert "Figure 3" in result.format()


class TestFigure4:
    def test_series_lengths(self, tiny_setup):
        result = run_figure4(tiny_setup, ks=(2, 6, 10), repeats=2)
        assert len(result.graph_relative) == 3
        assert len(result.merging_relative) == 3
        assert "Figure 4" in result.format()


class TestAblations:
    def test_greedy_seq(self, tiny_setup):
        result = run_ablation_greedy_seq(tiny_setup, k=2)
        assert result.cost_ratio >= 1.0 - 1e-9
        assert "GREEDY-SEQ" in result.format()

    def test_ranking(self, tiny_setup):
        result = run_ablation_ranking(tiny_setup, ks=(5, 4),
                                      n_blocks=8)
        assert all(result.optimal)
        assert "path-ranking" in result.format()

    def test_hybrid(self, tiny_setup):
        result = run_ablation_hybrid(tiny_setup, ks=(2, 10),
                                     repeats=1)
        assert len(result.methods) == 2
        assert "hybrid" in result.format()

    def test_space_bound(self, tiny_setup):
        result = run_ablation_space_bound(tiny_setup,
                                          bounds_mb=(0.5, 4.0), k=2,
                                          max_indexes=2)
        assert result.n_configs[1] >= result.n_configs[0]
        assert result.costs[1] <= result.costs[0] + 1e-6
