"""Family 1+2: hypothesis property tests for solver equivalence and
constrained invariants, plus the seeded regression corpus.

The hypothesis strategies draw *arbitrary* float matrices (including
exact ties and zeros); the seeded corpus pins the generator's four
cost variants so a tie-breaking or degenerate-cost regression cannot
slip past a lucky shrink.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.costmatrix import CostMatrices
from repro.verify.checks import (check_constrained_invariants,
                                 check_solver_equivalence)
from repro.verify.generators import (MatrixInstance, matrix_instances,
                                     random_matrix_instance,
                                     synthetic_configurations)
from repro.verify.report import CheckResult

#: Seeds 0..49 cycle through the generator's cost variants; CI runs
#: the same corpus through ``repro verify --quick``.
CORPUS_SEEDS = range(50)


@st.composite
def instance_strategy(draw, max_seg=5, max_cfg=4):
    n_seg = draw(st.integers(2, max_seg))
    n_cfg = draw(st.integers(2, max_cfg))
    exec_values = draw(st.lists(
        st.floats(0.0, 100.0, allow_nan=False),
        min_size=n_seg * n_cfg, max_size=n_seg * n_cfg))
    trans_values = draw(st.lists(
        st.floats(0.0, 50.0, allow_nan=False),
        min_size=n_cfg * n_cfg, max_size=n_cfg * n_cfg))
    exec_matrix = np.array(exec_values).reshape(n_seg, n_cfg)
    trans_matrix = np.array(trans_values).reshape(n_cfg, n_cfg)
    if draw(st.booleans()):
        # Quantize to force exact cost ties across distinct paths.
        exec_matrix = np.floor(exec_matrix / 25.0) * 25.0
        trans_matrix = np.floor(trans_matrix / 25.0) * 25.0
    np.fill_diagonal(trans_matrix, 0.0)
    initial = draw(st.integers(0, n_cfg - 1))
    final = draw(st.one_of(st.none(), st.integers(0, n_cfg - 1)))
    sizes = tuple(draw(st.lists(st.integers(0, 16),
                                min_size=n_cfg, max_size=n_cfg)))
    matrices = CostMatrices(
        configurations=synthetic_configurations(n_cfg),
        exec_matrix=exec_matrix, trans_matrix=trans_matrix,
        initial_index=initial, final_index=final)
    return MatrixInstance(label="hypothesis", matrices=matrices,
                          sizes=sizes,
                          space_bound_bytes=max(sizes))


@given(instance=instance_strategy())
@settings(max_examples=60, deadline=None)
def test_property_solver_equivalence(instance):
    result = CheckResult("solvers", "property")
    check_solver_equivalence(instance, result)
    assert result.ok, "\n".join(f.format() for f in result.failures)
    assert result.checks > 0


@given(instance=instance_strategy())
@settings(max_examples=60, deadline=None)
def test_property_constrained_invariants(instance):
    result = CheckResult("invariants", "property")
    check_constrained_invariants(instance, result)
    assert result.ok, "\n".join(f.format() for f in result.failures)


def test_regression_corpus_is_clean():
    """The 50-seed corpus (CI's acceptance batch) passes exactly."""
    solvers = CheckResult("solvers", "corpus")
    invariants = CheckResult("invariants", "corpus")
    for seed in CORPUS_SEEDS:
        instance = random_matrix_instance(seed)
        check_solver_equivalence(instance, solvers)
        check_constrained_invariants(instance, invariants)
    assert solvers.ok, "\n".join(f.format() for f in solvers.failures)
    assert invariants.ok, "\n".join(
        f.format() for f in invariants.failures)


def test_corpus_covers_every_generator_variant():
    """The corpus must keep exercising ties, zero TRANS, sparse zero
    EXEC, and both pinned and free finals — otherwise seeds drifting
    in the generator would silently hollow out the acceptance batch."""
    batch = matrix_instances(0, 50)
    variants = {seed % 4 for seed in range(50)}
    assert variants == {0, 1, 2, 3}
    finals = {instance.matrices.final_index is not None
              for instance in batch}
    assert finals == {True, False}
    assert any(np.all(instance.matrices.trans_matrix == 0.0)
               for instance in batch), "zero-TRANS variant missing"
    assert any(np.any(instance.matrices.exec_matrix == 0.0)
               for instance in batch), "zero-EXEC entries missing"


def test_denormal_exec_tie_breaks_identically():
    """Regression (hypothesis-found): with a denormal EXEC entry e,
    two parents with bases 0 and e produce bitwise-equal totals
    (0 + 1 == e + 1), and the reference constrained DP used to pick
    its parent *before* adding EXEC while the vectorized solver
    compares *after* — so the two returned different (equally
    optimal) assignments."""
    matrices = CostMatrices(
        configurations=synthetic_configurations(2),
        exec_matrix=np.array([[0.0, 2.02798918e-279],
                              [2.0, 1.0]]),
        trans_matrix=np.zeros((2, 2)),
        initial_index=0, final_index=None)
    instance = MatrixInstance(label="denormal-tie", matrices=matrices,
                              sizes=(0, 0), space_bound_bytes=0)
    result = CheckResult("solvers", "denormal tie")
    check_solver_equivalence(instance, result)
    assert result.ok, "\n".join(f.format() for f in result.failures)


def test_fixture_library_batch(verify_matrix_batch):
    """The documented fixture entry point runs families 1+2."""
    batch = verify_matrix_batch(100, 5)
    assert len(batch) == 5


def test_equivalence_check_catches_a_planted_bug(make_matrix_instance):
    """Differential harness sanity: a corrupted cost matrix on one of
    the two solver paths must be *detected*, not averaged away."""
    instance = make_matrix_instance(3)
    matrices = instance.matrices
    broken = CostMatrices(
        configurations=matrices.configurations,
        exec_matrix=matrices.exec_matrix + 1e-9,  # one path drifts
        trans_matrix=matrices.trans_matrix,
        initial_index=matrices.initial_index,
        final_index=matrices.final_index)
    from repro.core.sequence_graph import solve_unconstrained
    from repro.verify.reference import reference_unconstrained
    drifted = solve_unconstrained(broken)
    honest = reference_unconstrained(matrices)
    result = CheckResult("solvers", "planted bug")
    result.check(drifted.cost == honest.cost, instance.label,
                 "drift undetected")
    assert not result.ok
