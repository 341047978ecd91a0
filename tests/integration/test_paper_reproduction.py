"""The qualitative claims of every paper artefact ``repro experiment``
prints.

Table 2's shape and Figures 3/4 run at a reduced scale (30 000 rows,
blocks of 40) and ablation C's switch at 2 000 rows; every other claim
runs at the scale EXPERIMENTS.md reports (100 000 rows, blocks of
100, seed 0). No assertion reads a clock: where an artefact times
something (Figure 4, ablations A, C and F), the test holds the count
or the choice behind the timing instead.
"""

import pytest

from repro.bench import (COUNT_INITIAL_CHANGE, build_paper_setup,
                         run_ablation_granularity,
                         run_ablation_greedy_seq, run_ablation_ranking,
                         run_ablation_space_bound,
                         run_ablation_structures, run_extension_ktuning,
                         run_extension_online, run_extension_robustness,
                         run_figure3, run_table1, run_table2)
from repro.bench.experiments import figure4_matrices
from repro.core import (CostMatrices, build_cost_matrices, merge_to_k,
                        solve_constrained, solve_hybrid,
                        solve_unconstrained)
from repro.workload import block_labels


@pytest.fixture(scope="module")
def setup():
    return build_paper_setup(nrows=30_000, block_size=40, seed=1)


@pytest.fixture(scope="module")
def table2(setup):
    return run_table2(setup)


@pytest.fixture(scope="module")
def bench_setup():
    """The ``repro experiment`` default scale."""
    return build_paper_setup(nrows=100_000, block_size=100, seed=0)


@pytest.fixture(scope="module")
def bench_table2(bench_setup):
    return run_table2(bench_setup)


def test_table1_sampled_mixes_match_the_declared_ones():
    result = run_table1()
    for mix, weights in result.declared.items():
        for column, declared in weights.items():
            assert abs(result.sampled[mix][column] - declared) < 0.03, (
                mix, column)


class TestTable2Shape:
    def test_constrained_has_exactly_the_major_shifts(self, table2):
        assert table2.constrained.change_count == 2
        labels = [r.config.label for r in
                  table2.constrained.design.runs()]
        assert labels == ["{I(a,b)}", "{I(c,d)}", "{I(a,b)}"]

    def test_unconstrained_tracks_minors(self, table2):
        # More changes than the constrained design, tracking minors.
        assert table2.unconstrained.change_count > 10

    def test_phase2_uses_cd_indexes(self, table2):
        design = table2.unconstrained.design
        for block in range(10, 20):
            assert design[block].label in ("{I(c,d)}", "{I(d)}",
                                           "{I(c)}")

    def test_bench_scale_changes_at_blocks_10_and_20(self, bench_table2):
        runs = bench_table2.constrained.design.runs()
        assert [r.config.label for r in runs] == \
            ["{I(a,b)}", "{I(c,d)}", "{I(a,b)}"]
        assert [r.start for r in runs] == [0, 10, 20]

    def test_bench_scale_unconstrained_matches_block_for_block(
            self, bench_table2):
        per_mix = {"A": "{I(a,b)}", "B": "{I(b)}",
                   "C": "{I(c,d)}", "D": "{I(d)}"}
        design = bench_table2.unconstrained.design
        assert [design[b].label for b in range(30)] == \
            [per_mix[mix] for mix in block_labels("W1")]

    def test_constrained_costs_at_least_the_unconstrained(
            self, bench_table2):
        assert bench_table2.constrained.cost >= \
            bench_table2.unconstrained.cost


class TestFigure3Shape:
    @pytest.fixture(scope="module")
    def figure3(self, setup, table2):
        return run_figure3(setup, table2, metered=True)

    def test_w1_prefers_its_own_unconstrained_design(self, figure3):
        assert figure3.relative[("W1", "constrained")] > 1.0

    def test_w1_slowdown_is_moderate(self, figure3):
        # The paper reads ~14 % off its chart.
        assert 0.0 < figure3.relative[("W1", "constrained")] - 1.0 < 0.6

    def test_w2_w3_prefer_the_constrained_design(self, figure3):
        for name in ("W2", "W3"):
            assert figure3.relative[(name, "constrained")] < \
                figure3.relative[(name, "unconstrained")]

    def test_out_of_phase_w3_is_the_overfit_design_worst_bar(
            self, figure3):
        # W3's minors are opposite to W1's, so the overfit design
        # mispredicts every one of them.
        assert max(figure3.relative, key=figure3.relative.get) == \
            ("W3", "unconstrained")

    def test_engine_left_clean(self, setup, figure3):
        assert setup.db.current_configuration() == frozenset()


class TestFigure4Shape:
    """Figure 4's opposite slopes, asserted on operation counts: the
    timed slopes are ``repro experiment figure4``'s job (with
    repeats); tier-1 reads no clock."""

    def test_opposite_slopes(self, setup):
        matrices = figure4_matrices(setup)
        unconstrained = list(solve_unconstrained(matrices).assignment)
        ks = (2, 10, 18)
        # Merging starts from the unconstrained design and does less
        # work the looser the budget; the k-aware search expands one
        # more graph layer per allowed change.
        merge_steps = [
            len(merge_to_k(matrices, unconstrained, k,
                           COUNT_INITIAL_CHANGE).steps) for k in ks]
        layers = [solve_constrained(matrices, k,
                                    COUNT_INITIAL_CHANGE).layers_used
                  for k in ks]
        assert merge_steps == sorted(merge_steps, reverse=True)
        assert merge_steps[0] > merge_steps[-1]
        assert layers == sorted(layers)
        assert layers[-1] > layers[0]


def test_ablation_a_reduced_space_is_smaller_and_close(bench_setup):
    result = run_ablation_greedy_seq(bench_setup)
    assert result.reduced_configs < result.full_configs
    # The reduced space holds every per-block best, so its optimum
    # cannot beat the full space's and lands close to it.
    assert 1.0 - 1e-9 <= result.cost_ratio < 1.25


def test_ablation_b_ranking_effort_explodes_as_k_shrinks(bench_setup):
    result = run_ablation_ranking(bench_setup)
    assert all(result.optimal)
    paths = result.paths_examined
    assert paths == sorted(paths)
    assert paths[-1] > 10 * max(1, paths[0])


def test_ablation_c_hybrid_leaves_the_graph_once():
    # The runner's high-churn instance and k grid, without its timed
    # sweep: the method depends only on the work estimates. At 2 000
    # rows, blocks of 20 (l = 365), because at the bench scale the five
    # merging solves alone take ~2 s.
    small = build_paper_setup(nrows=2_000, block_size=20, seed=0)
    fine = figure4_matrices(small, segments_per_block=50)
    matrices = CostMatrices(
        configurations=fine.configurations,
        exec_matrix=fine.exec_matrix,
        trans_matrix=fine.trans_matrix * 0.001,
        initial_index=fine.initial_index, final_index=fine.final_index)
    l_changes = solve_unconstrained(matrices).change_count
    ks = sorted({2, max(3, l_changes // 16), max(4, l_changes // 8),
                 max(5, l_changes // 4), max(6, l_changes // 2),
                 max(7, (3 * l_changes) // 4)})
    methods = [solve_hybrid(matrices, k, COUNT_INITIAL_CHANGE).method
               for k in ks]
    assert methods[0] == "kaware"
    assert methods[-1] in ("merging", "unconstrained")
    first_off = next(i for i, m in enumerate(methods) if m != "kaware")
    assert "kaware" not in methods[first_off:], methods


def test_ablation_d_looser_bound_admits_more_and_costs_less(bench_setup):
    result = run_ablation_space_bound(bench_setup)
    counts, costs = result.n_configs, result.costs
    assert counts == sorted(counts) and counts[-1] > counts[0]
    assert all(looser <= tighter + 1e-6
               for tighter, looser in zip(costs, costs[1:]))


def test_ablation_e_views_beat_indexes(bench_setup):
    result = run_ablation_structures(bench_setup)
    views = result.costs["projection views"]
    indexes = result.costs["single-column indexes"]
    combined = result.costs["indexes + views"]
    assert views < indexes
    assert combined <= min(views, indexes) + 1e-6
    assert "V(" in " ".join(result.chosen["indexes + views"])


def test_ablation_f_block_granularity_loses_nothing(bench_setup):
    result = run_ablation_granularity(bench_setup)
    # Sizes 5/10/50/100 form a divisibility chain, so each coarser
    # design space is contained in the finer one.
    assert all(finer <= coarser + 1e-6
               for finer, coarser in zip(result.costs, result.costs[1:]))
    assert result.costs[-1] == pytest.approx(result.costs[0], rel=0.01)
    # At a fixed k (a fixed layer count), the DP's work is linear in
    # the segments: block granularity solves 20x fewer.
    assert result.n_segments == [600, 300, 60, 30]


def test_extension_1_knee_and_validation_pick_a_small_k(bench_setup):
    result = run_extension_ktuning(bench_setup)
    costs = result.sweep.costs
    assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))
    assert result.knee == 2
    validated = result.validated
    by_k = dict(zip(validated.ks, validated.validation_costs))
    overfit = max(validated.ks)
    assert validated.best_k < overfit
    assert by_k[validated.best_k] < by_k[overfit]
    assert by_k[validated.best_k] < by_k[0]


def test_extension_2_jitter_hurts_the_overfit_design(bench_setup):
    by_family = run_extension_robustness(bench_setup).by_family
    fresh = by_family["fresh constants"]
    jitter = by_family["jittered minors"]
    # Same block structure with new values: both stay near optimal.
    assert fresh["unconstrained"].mean_regret < 0.10
    assert fresh["constrained k=2"].mean_regret < 0.35
    # Moved minors: the constrained design's regret is the flatter one.
    assert jitter["constrained k=2"].worst_regret <= \
        jitter["unconstrained"].worst_regret + 0.02
    assert jitter["constrained k=2"].mean_regret <= \
        jitter["unconstrained"].mean_regret + 0.02
    assert jitter["unconstrained"].mean_regret > \
        fresh["unconstrained"].mean_regret


def test_extension_3_online_lands_between_offline_and_nothing(
        bench_setup):
    result = run_extension_online(bench_setup)
    matrices = build_cost_matrices(bench_setup.problem_for("W1"),
                                   bench_setup.provider)
    do_nothing = matrices.sequence_cost(
        [matrices.initial_index] * matrices.n_segments)
    assert result.cost_of("offline unconstrained") < \
        result.cost_of("online tuner") < do_nothing
    changes = {label: n for label, _, n in result.rows}
    assert changes["online tuner"] > changes["offline constrained k=2"]
    # Pinned to the unit: the reactive tuner's total is exact, the
    # offline rows are the figures EXPERIMENTS.md prints.
    assert result.cost_of("online tuner").hex() == \
        "0x1.1afe34ec661b6p+19"
    assert changes["online tuner"] == 18
    assert round(result.cost_of("offline unconstrained")) == 530214
    assert changes["offline unconstrained"] == 15
    assert round(result.cost_of("offline constrained k=2")) == 640362
    assert changes["offline constrained k=2"] == 2
