"""Unit tests for k selection (sweep, knee, validation)."""

import numpy as np
import pytest

from repro.core import (Configuration, CostService,
                        EMPTY_CONFIGURATION, MatrixCostProvider,
                        ProblemInstance, WhatIfCostProvider,
                        build_cost_matrices, knee_k, sweep_k,
                        validated_k)
from repro.core.ktuning import KSweepResult
from repro.errors import DesignError
from repro.sqlengine import IndexDef
from repro.workload import (Statement, Workload, jitter_blocks,
                            make_paper_workload, paper_generator,
                            segment_by_count)

from .helpers import random_matrices


class TestSweepK:
    def test_costs_non_increasing(self):
        matrices = random_matrices(8, 4, seed=0)
        sweep = sweep_k(matrices)
        for a, b in zip(sweep.costs, sweep.costs[1:]):
            assert b <= a + 1e-9

    def test_default_range_reaches_unconstrained(self):
        matrices = random_matrices(8, 4, seed=1)
        sweep = sweep_k(matrices)
        assert sweep.ks[-1] == sweep.unconstrained_changes
        assert sweep.costs[-1] == pytest.approx(
            sweep.unconstrained_cost)

    def test_explicit_ks(self):
        matrices = random_matrices(6, 3, seed=2)
        sweep = sweep_k(matrices, ks=[0, 2, 4])
        assert sweep.ks == (0, 2, 4)
        assert len(sweep.costs) == 3

    def test_negative_k_raises(self):
        matrices = random_matrices(4, 3, seed=3)
        with pytest.raises(DesignError):
            sweep_k(matrices, ks=[-1, 2])


#: Budgets ``sweep_k`` / ``validated_k`` refuse: an empty list (the
#: sweep came back empty and ``knee_k`` died with IndexError) and
#: anything but a non-negative integer (2.7 and True were truncated to
#: 2 and 1).
BAD_BUDGETS = [[], [2.7, True], [True], [0, False], [1.0], ["2"], [-1]]


class TestBudgets:
    @pytest.mark.parametrize("ks", BAD_BUDGETS)
    def test_sweep_k_refuses(self, ks):
        with pytest.raises(DesignError):
            sweep_k(random_matrices(4, 3, seed=3), ks=ks)

    @pytest.mark.parametrize("ks", BAD_BUDGETS)
    def test_validated_k_refuses(self, ks, small_problem,
                                 small_provider):
        with pytest.raises(DesignError):
            validated_k(small_problem, small_provider,
                        heavy_jitter_variations(), block_size=50, ks=ks)

    def test_integer_budgets_are_sorted_and_deduplicated(self):
        matrices = random_matrices(6, 3, seed=2)
        sweep = sweep_k(matrices, ks=[np.int64(4), 0, 4, 2])
        assert sweep.ks == (0, 2, 4)
        assert all(type(k) is int for k in sweep.ks)
        assert sweep.costs == sweep_k(matrices, ks=range(0, 5, 2)).costs


class TestKneeK:
    def test_synthetic_knee_detected(self):
        # Cost plunges until k=3 then flattens.
        sweep = KSweepResult(ks=tuple(range(7)),
                             costs=(100, 70, 45, 20, 19.5, 19.2, 19),
                             unconstrained_cost=19,
                             unconstrained_changes=6)
        assert knee_k(sweep) == 3

    def test_flat_curve_returns_smallest(self):
        sweep = KSweepResult(ks=(0, 1, 2), costs=(10, 10, 10),
                             unconstrained_cost=10,
                             unconstrained_changes=2)
        assert knee_k(sweep) == 0

    def test_plateau_before_cliff_is_skipped(self):
        # k=1 buys nothing, k=2 buys everything: the knee is 2, not
        # the plateau at 0/1.
        sweep = KSweepResult(ks=(0, 1, 2, 3, 4),
                             costs=(100, 100, 30, 29, 28),
                             unconstrained_cost=28,
                             unconstrained_changes=4)
        assert knee_k(sweep) == 2

    def test_linear_curve_returns_largest(self):
        sweep = KSweepResult(ks=(0, 1, 2), costs=(100, 60, 20),
                             unconstrained_cost=20,
                             unconstrained_changes=2)
        assert knee_k(sweep) == 2

    def test_single_point(self):
        sweep = KSweepResult(ks=(3,), costs=(5.0,),
                             unconstrained_cost=5.0,
                             unconstrained_changes=3)
        assert knee_k(sweep) == 3

    def test_convex_curve_with_gate_returns_smallest_gated_k(self):
        """Regression: on a convex curve every point sits on/above the
        chord, so the masked kneedle scores peak at a boundary zero
        and ``argmax`` used to hand back the *last* point. The
        documented fallback is the smallest k clearing the
        cumulative-gain gate."""
        sweep = KSweepResult(ks=(0, 1, 2, 3),
                             costs=(100.0, 95.0, 80.0, 0.0),
                             unconstrained_cost=0.0,
                             unconstrained_changes=3)
        assert knee_k(sweep, min_relative_gain=0.05) == 1

    def test_gate_filtering_every_point_returns_largest(self):
        """Regression: a gate above 1.0 filters every point (cumulative
        gain tops out at 1.0), and ``np.argmax`` over the resulting
        all ``-inf`` scores silently picked index 0 — reporting the
        *smallest* budget precisely when the caller demanded the most
        gain. The explicit fallback is the largest k."""
        sweep = KSweepResult(ks=(0, 1, 2), costs=(100.0, 50.0, 20.0),
                             unconstrained_cost=20.0,
                             unconstrained_changes=2)
        assert knee_k(sweep, min_relative_gain=1.5) == 2

    def test_paper_workload_knee_is_the_major_shift_count(
            self, small_matrices):
        """On W1, the knee of the cost curve should be ~2 — the number
        of major shifts, recovering the paper's domain-knowledge choice
        automatically."""
        sweep = sweep_k(small_matrices, count_initial_change=False)
        knee = knee_k(sweep)
        assert knee == 2


def heavy_jitter_variations():
    """Heavily jittered minors: the scenario where overfit designs
    lose (the W3 relationship, synthesized)."""
    workload = make_paper_workload("W1", paper_generator(seed=5),
                                   block_size=50)
    return [jitter_blocks(workload, 50, seed=77 + i, max_displacement=3,
                          swap_fraction=0.9)
            for i in range(4)]


class TestValidatedK:
    @pytest.fixture(scope="class")
    def tuned(self, small_db, small_problem, small_provider):
        return validated_k(small_problem, small_provider,
                           heavy_jitter_variations(),
                           block_size=50, ks=[0, 1, 2, 6, 10, 14],
                           count_initial_change=False)

    def test_training_costs_non_increasing(self, tuned):
        for a, b in zip(tuned.training_costs,
                        tuned.training_costs[1:]):
            assert b <= a + 1e-9

    def test_validation_penalizes_overfit_designs(self, tuned):
        """The largest k must not win validation: its design is fit to
        the trace's exact minor shifts."""
        by_k = dict(zip(tuned.ks, tuned.validation_costs))
        assert tuned.best_k < max(tuned.ks)
        assert by_k[tuned.best_k] <= by_k[max(tuned.ks)]

    def test_best_k_beats_k0_on_validation(self, tuned):
        by_k = dict(zip(tuned.ks, tuned.validation_costs))
        assert by_k[tuned.best_k] < by_k[0]

    def test_designs_recorded_per_k(self, tuned):
        assert set(tuned.designs) == set(tuned.ks)

    def test_zero_cost_validation_ties_break_to_smaller_k(self):
        """Regression: the tie tolerance was purely relative, so when
        the best validation cost is exactly 0, a smaller k costing
        1e-15 could never tie with it and the larger (more overfit)
        budget won. The absolute floor restores the smaller-k
        preference."""
        statements = [Statement("SELECT a FROM t WHERE a = 0"),
                      Statement("SELECT a FROM t WHERE a = 1")]
        workload = Workload(statements, name="zero-cost")
        segments = segment_by_count(workload, 1)
        configs = (EMPTY_CONFIGURATION,
                   Configuration({IndexDef("t", ("a",))}))
        provider = MatrixCostProvider(
            segments, configs,
            exec_matrix=np.array([[1e-15, 0.0], [0.0, 0.0]]),
            trans_matrix=np.zeros((2, 2)))
        problem = ProblemInstance(segments=tuple(segments),
                                  configurations=configs,
                                  initial=EMPTY_CONFIGURATION)
        tuned = validated_k(problem, provider, [workload],
                            block_size=1, ks=[0, 1])
        assert tuned.validation_costs == [1e-15, 0.0]
        assert tuned.best_k == 0

    def test_mismatched_variation_length_raises(
            self, small_problem, small_provider):
        short = make_paper_workload("W1", paper_generator(seed=5),
                                    block_size=10)
        # 300 statements at block 50 -> 6 segments, trace has 30.
        with pytest.raises(DesignError):
            validated_k(small_problem, small_provider, [short],
                        block_size=50, ks=[1])


#: ``float.hex()`` of the small-problem k-selection numbers, recorded
#: at d5fa8e5 (before pricing moved onto the one
#: ``CostMatrices.sequence_cost`` fold). Held to the bit, under both
#: providers: the fold may be shared, the floats may not move.
PINNED_KS = [0, 1, 2, 6, 10, 14]
PINNED_VALIDATION = [
    "0x1.35aad0ec92ebap+16", "0x1.35aad0ec92ebap+16",
    "0x1.24b1fbf4ae42cp+16", "0x1.33800365127eap+16",
    "0x1.40b6c9e4a26d3p+16", "0x1.4a2d4fe482626p+16"]
PINNED_TRAINING = [
    "0x1.35aad0ec92ebbp+16", "0x1.35aad0ec92ebbp+16",
    "0x1.01120923b1e04p+16", "0x1.e148bedcb4b1ap+15",
    "0x1.cd7d6186f8367p+15", "0x1.bf0ffda7a2a2dp+15"]
#: sweep_k(count_initial_change=False).costs for k = 0..14; the strict
#: sweep is the stay-on-C0 cost followed by the same curve.
PINNED_SWEEP = [
    "0x1.35aad0ec92ebbp+16", "0x1.35aad0ec92ebbp+16",
    "0x1.01120923b1e04p+16", "0x1.01120923b1e04p+16",
    "0x1.f17a6aa887324p+15", "0x1.f17a6aa887324p+15",
    "0x1.e148bedcb4b1ap+15", "0x1.e148bedcb4b1ap+15",
    "0x1.d6b7107497877p+15", "0x1.d6b7107497877p+15",
    "0x1.cd7d6186f8367p+15", "0x1.cd7d6186f8367p+15",
    "0x1.c50fb21376cafp+15", "0x1.c50fb21376cafp+15",
    "0x1.bf0ffda7a2a2dp+15"]
PINNED_STAY_PUT = "0x1.e078000000000p+16"


@pytest.mark.parametrize("provider_class",
                         [WhatIfCostProvider, CostService])
class TestPinnedToTheBit:
    def test_validated_k_costs(self, small_db, small_problem,
                               provider_class):
        tuned = validated_k(small_problem,
                            provider_class(small_db.what_if()),
                            heavy_jitter_variations(), block_size=50,
                            ks=PINNED_KS, count_initial_change=False)
        assert tuned.best_k == 2
        assert [float(c).hex() for c in tuned.validation_costs] == \
            PINNED_VALIDATION
        assert [float(c).hex() for c in tuned.training_costs] == \
            PINNED_TRAINING

    def test_sweep_k_costs(self, small_db, small_problem,
                           provider_class):
        matrices = build_cost_matrices(
            small_problem, provider_class(small_db.what_if()))
        relaxed = sweep_k(matrices, count_initial_change=False)
        strict = sweep_k(matrices)
        assert relaxed.unconstrained_changes == 14
        assert strict.unconstrained_changes == 15
        assert [c.hex() for c in relaxed.costs] == PINNED_SWEEP
        assert [c.hex() for c in strict.costs] == \
            [PINNED_STAY_PUT] + PINNED_SWEEP
        assert relaxed.unconstrained_cost.hex() == PINNED_SWEEP[-1]
