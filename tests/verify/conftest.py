"""Fixtures for the verification harness's tests. They wrap the
harness's generators and check families so a test can say "give me
randomized instances" or "assert family N is clean on this instance"
in one line."""

from typing import Callable, List

import pytest

from repro.verify.checks import (check_constrained_invariants,
                                 check_solver_equivalence)
from repro.verify.generators import (MatrixInstance, TraceInstance,
                                     matrix_instances,
                                     random_matrix_instance,
                                     random_trace_problem)
from repro.verify.report import CheckResult


@pytest.fixture
def make_matrix_instance() -> Callable[[int], MatrixInstance]:
    """Factory: ``make_matrix_instance(seed)`` -> MatrixInstance."""
    return random_matrix_instance


@pytest.fixture(scope="session")
def quick_trace() -> TraceInstance:
    """One small live trace instance, shared across the session.

    Session-scoped because building and loading the database is the
    expensive part; the check families do not mutate the instance
    destructively (ground truth restores the empty design).
    """
    return random_trace_problem(seed=0, nrows=4_000, n_blocks=4,
                                block_size=25)


@pytest.fixture
def assert_family_clean() -> Callable[..., CheckResult]:
    """Run one check family and fail the test on any disagreement.

    Usage::

        def test_solvers(make_matrix_instance, assert_family_clean):
            assert_family_clean(check_solver_equivalence,
                                make_matrix_instance(7))
    """

    def _run(family: Callable, instance, **kwargs) -> CheckResult:
        result = CheckResult(getattr(family, "__name__", "family"),
                             "fixture-driven check")
        family(instance, result, **kwargs)
        if not result.ok:
            pytest.fail("\n".join(
                failure.format() for failure in result.failures))
        return result

    return _run


@pytest.fixture
def verify_matrix_batch(
        assert_family_clean) -> Callable[[int, int],
                                         List[MatrixInstance]]:
    """Run families 1+2 over a seeded batch of matrix instances."""

    def _run(seed: int, count: int) -> List[MatrixInstance]:
        batch = matrix_instances(seed, count)
        for instance in batch:
            assert_family_clean(check_solver_equivalence, instance)
            assert_family_clean(check_constrained_invariants, instance)
        return batch

    return _run
