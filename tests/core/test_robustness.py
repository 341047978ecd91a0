"""Unit tests for robustness analysis."""

import pytest

from repro.core import (ConstrainedGraphAdvisor, CostService,
                        DesignSequence, EMPTY_CONFIGURATION,
                        UnconstrainedAdvisor, WhatIfCostProvider,
                        compare_robustness, evaluate_robustness)
from repro.core.robustness import VariantOutcome
from repro.errors import DesignError
from repro.workload import (jitter_blocks, make_paper_workload,
                            paper_generator)


@pytest.fixture(scope="module")
def designs(small_problem, small_provider, small_matrices):
    unconstrained = UnconstrainedAdvisor().recommend(
        small_problem, small_provider, small_matrices)
    constrained = ConstrainedGraphAdvisor(
        2, count_initial_change=False).recommend(
        small_problem, small_provider, small_matrices)
    return unconstrained.design, constrained.design


@pytest.fixture(scope="module")
def jitter_variants():
    trace = make_paper_workload("W1", paper_generator(seed=5),
                                block_size=50)
    return [jitter_blocks(trace, 50, seed=s, max_displacement=2)
            for s in (101, 102, 103)]


class TestVariantOutcome:
    def test_regret_formula(self):
        outcome = VariantOutcome("v", design_cost=120.0,
                                 optimal_cost=100.0)
        assert outcome.regret == pytest.approx(0.2)

    def test_zero_optimum_guard(self):
        assert VariantOutcome("v", 5.0, 0.0).regret == 0.0


class TestEvaluateRobustness:
    def test_regret_nonnegative(self, designs, jitter_variants,
                                small_problem, small_provider):
        _, constrained = designs
        report = evaluate_robustness(constrained, small_problem,
                                     small_provider, jitter_variants,
                                     block_size=50)
        assert all(o.regret >= -1e-9 for o in report.outcomes)
        assert len(report.outcomes) == 3

    def test_wrong_design_length_raises(self, small_problem,
                                        small_provider,
                                        jitter_variants):
        bad = DesignSequence(EMPTY_CONFIGURATION,
                             [EMPTY_CONFIGURATION])
        with pytest.raises(DesignError):
            evaluate_robustness(bad, small_problem, small_provider,
                                jitter_variants, block_size=50)

    def test_mismatched_variant_raises(self, designs, small_problem,
                                       small_provider):
        _, constrained = designs
        short = make_paper_workload("W1", paper_generator(seed=5),
                                    block_size=10)
        # 300 statements at block 50 -> 6 segments, trace has 30.
        with pytest.raises(DesignError):
            evaluate_robustness(constrained, small_problem,
                                small_provider, [short],
                                block_size=50)


class TestCompareRobustness:
    def test_constrained_is_flatter_under_jitter(
            self, designs, jitter_variants, small_problem,
            small_provider):
        """The paper's second open question, answered on jittered
        minors: the constrained design's worst-case regret across
        variants must not exceed the overfit design's."""
        unconstrained, constrained = designs
        reports = compare_robustness(
            {"unconstrained": unconstrained, "k2": constrained},
            small_problem, small_provider, jitter_variants,
            block_size=50)
        assert reports["k2"].worst_regret <= \
            reports["unconstrained"].worst_regret + 0.02

    def test_reports_keyed_by_label(self, designs, jitter_variants,
                                    small_problem, small_provider):
        unconstrained, constrained = designs
        reports = compare_robustness(
            {"u": unconstrained, "c": constrained}, small_problem,
            small_provider, jitter_variants, block_size=50)
        assert set(reports) == {"u", "c"}
        assert reports["u"].design_label == "u"


#: ``float.hex()`` per jitter variant (seeds 101-103), recorded at
#: d5fa8e5 before ``evaluate_robustness`` priced designs with
#: ``design.cost(matrices)``; held to the bit under both providers.
PINNED_DESIGN_COSTS = {
    "unconstrained": ["0x1.1d41e1d731f97p+16", "0x1.0a8febc4cae9dp+16",
                      "0x1.3792d80cede3ep+16"],
    "k2": ["0x1.01120923b1e04p+16", "0x1.11e20259ca5d6p+16",
           "0x1.2696fae93f6b1p+16"],
}
PINNED_OPTIMAL_COSTS = ["0x1.c0412244c663dp+15", "0x1.c685b4b955683p+15",
                        "0x1.c977fdf39cea4p+15"]


@pytest.mark.parametrize("provider_class",
                         [WhatIfCostProvider, CostService])
def test_outcomes_pinned_to_the_bit(designs, jitter_variants, small_db,
                                    small_problem, provider_class):
    reports = compare_robustness(
        dict(zip(("unconstrained", "k2"), designs)), small_problem,
        provider_class(small_db.what_if()), jitter_variants,
        block_size=50)
    for label, report in reports.items():
        assert [o.design_cost.hex() for o in report.outcomes] == \
            PINNED_DESIGN_COSTS[label]
        assert [o.optimal_cost.hex() for o in report.outcomes] == \
            PINNED_OPTIMAL_COSTS
