"""Shape assertions for the paper's results at reduced test scale.

The full-scale versions live under ``benchmarks/``; these run the same
experiments small enough for the regular test suite and assert the
qualitative claims of Section 6.
"""

import pytest

from repro.bench import (COUNT_INITIAL_CHANGE, build_paper_setup,
                         run_figure3, run_table2)
from repro.bench.experiments import figure4_matrices
from repro.core import (merge_to_k, solve_constrained,
                        solve_unconstrained)


@pytest.fixture(scope="module")
def setup():
    return build_paper_setup(nrows=30_000, block_size=40, seed=1)


@pytest.fixture(scope="module")
def table2(setup):
    return run_table2(setup)


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


class TestFigure3Shape:
    @pytest.fixture(scope="module")
    def figure3(self, setup, table2):
        return run_figure3(setup, table2, metered=True)

    def test_w1_prefers_its_own_unconstrained_design(self, figure3):
        assert figure3.relative[("W1", "constrained")] > 1.0

    def test_w2_w3_prefer_the_constrained_design(self, figure3):
        for name in ("W2", "W3"):
            assert figure3.relative[(name, "constrained")] < \
                figure3.relative[(name, "unconstrained")]

    def test_engine_left_clean(self, setup, figure3):
        assert setup.db.current_configuration() == frozenset()


class TestFigure4Shape:
    """Figure 4's opposite slopes, asserted on operation counts: the
    timed slopes are ``benchmarks/bench_figure4_optimizer_cost.py``'s
    job (with repeats); tier-1 reads no clock."""

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
