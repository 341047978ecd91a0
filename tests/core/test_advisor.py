"""Tests for the advisor facade (on the real engine, small scale)."""

import pytest

from repro.core import (ConstrainedGraphAdvisor, GreedySeqAdvisor,
                        HybridAdvisor, LPAdvisor, MergingAdvisor,
                        ProblemInstance, RankingAdvisor, StaticAdvisor,
                        UnconstrainedAdvisor)
from repro.errors import RankingExhaustedError
from repro.verify.generators import random_matrix_instance
from repro.workload import Segment, Statement


@pytest.fixture(scope="module")
def recommendations(small_problem, small_provider, small_matrices):
    advisors = {
        "unconstrained": UnconstrainedAdvisor(),
        "static": StaticAdvisor(),
        "kaware": ConstrainedGraphAdvisor(2,
                                          count_initial_change=False),
        "merging": MergingAdvisor(2, count_initial_change=False),
        "hybrid": HybridAdvisor(2, count_initial_change=False),
    }
    return {name: advisor.recommend(small_problem, small_provider,
                                    small_matrices)
            for name, advisor in advisors.items()}


class TestRecommendations:
    def test_all_produce_designs_of_right_length(self, recommendations,
                                                 small_problem):
        for name, rec in recommendations.items():
            assert len(rec.design) == small_problem.n_segments, name

    def test_costs_consistent_with_matrices(self, recommendations,
                                            small_matrices):
        for name, rec in recommendations.items():
            assert rec.design.cost(small_matrices) == \
                pytest.approx(rec.cost), name

    def test_constrained_respect_budget(self, recommendations):
        for name in ("kaware", "merging", "hybrid"):
            assert recommendations[name].change_count <= 2, name

    def test_unconstrained_is_cheapest(self, recommendations):
        base = recommendations["unconstrained"].cost
        for name, rec in recommendations.items():
            assert rec.cost >= base - 1e-6, name

    def test_static_is_single_config(self, recommendations):
        design = recommendations["static"].design
        assert len(set(design.assignments)) == 1

    def test_kaware_beats_or_ties_static(self, recommendations):
        assert recommendations["kaware"].cost <= \
            recommendations["static"].cost + 1e-6

    def test_merging_matches_or_exceeds_kaware(self, recommendations):
        assert recommendations["merging"].cost >= \
            recommendations["kaware"].cost - 1e-6

    def test_wall_time_recorded(self, recommendations):
        for rec in recommendations.values():
            assert rec.wall_time_seconds >= 0

    def test_summary_text(self, recommendations):
        text = recommendations["kaware"].summary()
        assert "kaware" in text and "changes=2" in text

    def test_stats_populated(self, recommendations):
        assert recommendations["hybrid"].stats["method"] in (
            "kaware", "merging", "unconstrained")
        assert recommendations["kaware"].stats["k"] == 2


class TestGreedySeqAdvisor:
    def test_recommend_without_prebuilt_matrices(self, small_problem,
                                                 small_provider):
        advisor = GreedySeqAdvisor(2, count_initial_change=False)
        rec = advisor.recommend(small_problem, small_provider)
        assert rec.change_count <= 2
        assert rec.stats["candidates"] >= 2
        assert len(rec.design) == small_problem.n_segments

    def test_unconstrained_mode(self, small_problem, small_provider):
        advisor = GreedySeqAdvisor(None)
        rec = advisor.recommend(small_problem, small_provider)
        assert rec.cost > 0


class TestRankingAdvisor:
    def test_near_l_budget_is_fast_and_optimal(self, small_problem,
                                               small_provider,
                                               small_matrices):
        unconstrained = UnconstrainedAdvisor().recommend(
            small_problem, small_provider, small_matrices)
        k = max(1, unconstrained.change_count - 1)
        ranked = RankingAdvisor(k).recommend(
            small_problem, small_provider, small_matrices)
        exact = ConstrainedGraphAdvisor(k).recommend(
            small_problem, small_provider, small_matrices)
        assert ranked.cost == pytest.approx(exact.cost)


class TestCountingMode:
    """``Recommendation.change_count`` is "under the advisor's counting
    mode" for every advisor, not only the constrained ones."""

    def test_unconstrained_honours_counting_mode(
            self, small_problem, small_provider, small_matrices):
        def recommend(advisor):
            return advisor.recommend(small_problem, small_provider,
                                     small_matrices)

        strict = recommend(UnconstrainedAdvisor())
        relaxed = recommend(
            UnconstrainedAdvisor(count_initial_change=False))
        hybrid = recommend(HybridAdvisor(small_problem.n_segments,
                                         count_initial_change=False))
        assert relaxed.design == strict.design == hybrid.design
        assert relaxed.change_count == hybrid.change_count
        # Segment 0 leaves C0 on W1, so the strict count is one more.
        assert strict.design[0] != small_problem.initial
        assert relaxed.change_count == strict.change_count - 1

    def test_every_advisor_reports_its_own_mode(
            self, small_problem, small_provider, small_matrices):
        for advisor in (StaticAdvisor(count_initial_change=False),
                        MergingAdvisor(2, count_initial_change=False),
                        GreedySeqAdvisor(None,
                                         count_initial_change=False)):
            rec = advisor.recommend(small_problem, small_provider)
            between = sum(a != b for a, b in zip(
                rec.design.assignments, rec.design.assignments[1:]))
            assert rec.change_count == between, advisor.name
        merging = MergingAdvisor(2, count_initial_change=False) \
            .recommend(small_problem, small_provider, small_matrices)
        unconstrained = UnconstrainedAdvisor(count_initial_change=False) \
            .recommend(small_problem, small_provider, small_matrices)
        assert merging.stats["initial_changes"] == \
            unconstrained.change_count


class TestCostIsTheDesignsPrice:
    """Every advisor reports the price of its own design: the cost is
    :meth:`CostMatrices.sequence_cost` of the assignment, not a
    solver's own fold (a static total or a ranked path length can
    differ from it in the last bit)."""

    def test_on_random_matrix_instances(self):
        advisors = (UnconstrainedAdvisor(), StaticAdvisor(),
                    ConstrainedGraphAdvisor(2), LPAdvisor(2),
                    MergingAdvisor(2), HybridAdvisor(2),
                    RankingAdvisor(2, max_paths=2000))
        checked = 0
        for seed in range(300):
            matrices = random_matrix_instance(seed).matrices
            configurations = matrices.configurations
            final = None if matrices.final_index is None else \
                configurations[matrices.final_index]
            problem = ProblemInstance(
                segments=tuple(
                    Segment((Statement("SELECT a FROM t"),), start=i)
                    for i in range(matrices.n_segments)),
                configurations=configurations,
                initial=configurations[matrices.initial_index],
                final=final)
            for advisor in advisors:
                try:
                    rec = advisor.recommend(problem, None, matrices)
                except RankingExhaustedError:
                    continue
                assert rec.cost == rec.design.cost(matrices), \
                    (seed, advisor.name)
                checked += 1
        assert checked > 2000
